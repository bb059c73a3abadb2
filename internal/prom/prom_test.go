package prom

import (
	"strings"
	"testing"
)

// TestExposition pins the text format byte for byte: HELP then TYPE, %v
// values (integers as %d, floats as %g), quoted labels in sorted key
// order — numeric order for integer keys — and kind/status keys split
// into two labels.
func TestExposition(t *testing.T) {
	var b strings.Builder
	p := New(&b)
	p.Metric("x_total", "counter", "Things.", int64(3))
	p.Metric("x_ratio", "gauge", "Share.", 0.875)
	Labelled(p, "x_seconds_total", "counter", "By stage.", "stage", map[string]float64{"iteration": 1.5, "check": 2e-7})
	Labelled(p, "x_bytes", "gauge", "Per worker.", "worker", map[int]int64{10: 1, 2: 7})
	Labelled(p, "x_empty", "counter", "Nothing yet.", "reason", map[string]int64{})
	p.KindStatus("x_completed_total", "Finished.", map[string]int64{"enforce/error": 1, "check/200": 4})
	want := "# HELP x_total Things.\n# TYPE x_total counter\nx_total 3\n" +
		"# HELP x_ratio Share.\n# TYPE x_ratio gauge\nx_ratio 0.875\n" +
		"# HELP x_seconds_total By stage.\n# TYPE x_seconds_total counter\n" +
		"x_seconds_total{stage=\"check\"} 2e-07\nx_seconds_total{stage=\"iteration\"} 1.5\n" +
		"# HELP x_bytes Per worker.\n# TYPE x_bytes gauge\nx_bytes{worker=\"2\"} 7\nx_bytes{worker=\"10\"} 1\n" +
		"# HELP x_empty Nothing yet.\n# TYPE x_empty counter\n" +
		"# HELP x_completed_total Finished.\n# TYPE x_completed_total counter\n" +
		"x_completed_total{kind=\"check\",status=\"200\"} 4\nx_completed_total{kind=\"enforce\",status=\"error\"} 1\n"
	if got := b.String(); got != want {
		t.Fatalf("exposition mismatch\ngot:\n%s\nwant:\n%s", got, want)
	}
}
