// Package prom writes the Prometheus text exposition format (0.0.4) for
// passivityd and the cluster coordinator. The module takes no
// dependencies, so the format is hand-rolled once, here.
package prom

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"strings"
)

// Writer emits metric families to an io.Writer.
type Writer struct{ w io.Writer }

// New returns a Writer on w.
func New(w io.Writer) Writer { return Writer{w} }

// Header writes a family's HELP and TYPE lines.
func (p Writer) Header(name, typ, help string) {
	fmt.Fprintf(p.w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// Metric writes a family with one unlabelled sample.
func (p Writer) Metric(name, typ, help string, v any) {
	p.Header(name, typ, help)
	fmt.Fprintf(p.w, "%s %v\n", name, v)
}

// Labelled writes a family with one sample per key of m, in key order,
// labelled label="key".
func Labelled[K cmp.Ordered, V any](p Writer, name, typ, help, label string, m map[K]V) {
	p.Header(name, typ, help)
	for _, k := range sortedKeys(m) {
		fmt.Fprintf(p.w, "%s{%s=%q} %v\n", name, label, fmt.Sprint(k), m[k])
	}
}

// KindStatus writes a counter family keyed "kind/status" as samples
// labelled kind= and status=.
func (p Writer) KindStatus(name, help string, m map[string]int64) {
	p.Header(name, "counter", help)
	for _, k := range sortedKeys(m) {
		kind, status, _ := strings.Cut(k, "/")
		fmt.Fprintf(p.w, "%s{kind=%q,status=%q} %d\n", name, kind, status, m[k])
	}
}

func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
