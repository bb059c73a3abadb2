package passivity

import (
	"math"
	"math/rand"
	"testing"
)

// insertionSortFloats is the stable insertion sort by < that sortFloats
// replaced; it is the order oracle.
func insertionSortFloats(v []float64) {
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j] < v[j-1]; j-- {
			v[j], v[j-1] = v[j-1], v[j]
		}
	}
}

// TestSortFloatsMatchesInsertionSort pins sortFloats bit for bit to the
// insertion sort on random slices full of duplicates and signed zeros,
// where only a stable sort keeps −0 and +0 in input order.
func TestSortFloatsMatchesInsertionSort(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pool := []float64{math.Copysign(0, -1), 0, 1, -1, 2.5, 1e-300, -1e300, math.Inf(1), math.Inf(-1)}
	for trial := 0; trial < 500; trial++ {
		n := rng.Intn(200)
		if trial%50 == 0 {
			n = 2000 + rng.Intn(1000)
		}
		v := make([]float64, n)
		for i := range v {
			if rng.Intn(3) == 0 {
				v[i] = pool[rng.Intn(len(pool))]
			} else {
				v[i] = float64(rng.Intn(20)) * rng.NormFloat64()
			}
		}
		want := append([]float64(nil), v...)
		insertionSortFloats(want)
		sortFloats(v)
		for i := range v {
			if math.Float64bits(v[i]) != math.Float64bits(want[i]) {
				t.Fatalf("trial %d (n=%d): index %d is %v, insertion sort gives %v", trial, n, i, v[i], want[i])
			}
		}
	}
}
