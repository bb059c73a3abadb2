package mat

import (
	"math"
	"math/rand"
	"testing"
)

func randomCMatrix(rng *rand.Rand, r, c int) *CMatrix {
	m := NewCMatrix(r, c)
	for i := range m.Data {
		m.Data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return m
}

// TestCSVDecomposeIntoMatchesCSVDecompose: the workspace path must agree
// bitwise with the allocating wrapper (they share the packed kernel), for
// tall, wide and square shapes, including reuse of one workspace across
// different sizes.
func TestCSVDecomposeIntoMatchesCSVDecompose(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var ws CSVDWorkspace
	for _, dims := range [][2]int{{4, 4}, {7, 3}, {3, 7}, {12, 12}, {2, 9}, {9, 2}} {
		a := randomCMatrix(rng, dims[0], dims[1])
		want := CSVDecompose(a)
		got := CSVDecomposeInto(&ws, a)
		if len(got.S) != len(want.S) {
			t.Fatalf("%v: %d singular values, want %d", dims, len(got.S), len(want.S))
		}
		for i := range want.S {
			if got.S[i] != want.S[i] {
				t.Fatalf("%v: S[%d] = %v, want %v", dims, i, got.S[i], want.S[i])
			}
		}
		if !got.U.Equalish(want.U, 0) || !got.V.Equalish(want.V, 0) {
			t.Fatalf("%v: singular vectors differ", dims)
		}
	}
}

// TestSingularValuesIntoMatchesSingularValues: values and order must match
// the allocating entry point bitwise.
func TestSingularValuesIntoMatchesSingularValues(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	var ws CSVDWorkspace
	var buf []float64
	for _, dims := range [][2]int{{5, 5}, {8, 3}, {3, 8}} {
		a := randomCMatrix(rng, dims[0], dims[1])
		want := SingularValues(a)
		buf = SingularValuesInto(&ws, a, buf)
		if len(buf) != len(want) {
			t.Fatalf("%v: %d values, want %d", dims, len(buf), len(want))
		}
		for i := range want {
			if buf[i] != want[i] {
				t.Fatalf("%v: S[%d] = %v, want %v", dims, i, buf[i], want[i])
			}
		}
	}
}

// TestCSVDecomposeIntoZeroAllocs: after warm-up, the workspace SVD kernels
// must not allocate — they run once per frequency inside the passivity
// sweeps.
func TestCSVDecomposeIntoZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	a := randomCMatrix(rng, 6, 6)
	var ws CSVDWorkspace
	CSVDecomposeInto(&ws, a) // warm-up sizes the buffers
	if n := testing.AllocsPerRun(50, func() {
		CSVDecomposeInto(&ws, a)
	}); n != 0 {
		t.Fatalf("CSVDecomposeInto allocates %v times per call after warm-up", n)
	}

	var ws2 CSVDWorkspace
	buf := SingularValuesInto(&ws2, a, nil)
	if n := testing.AllocsPerRun(50, func() {
		buf = SingularValuesInto(&ws2, a, buf)
	}); n != 0 {
		t.Fatalf("SingularValuesInto allocates %v times per call after warm-up", n)
	}
}

// TestSolveVecIntoMatchesSolveVec covers the allocation-free Cholesky
// solve, including the aliased (in-place) form.
func TestSolveVecIntoMatchesSolveVec(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	n := 9
	// SPD matrix A = MᵀM + I.
	m := NewMatrix(n, n)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	a := m.T().Mul(m)
	for i := 0; i < n; i++ {
		a.Set(i, i, a.At(i, i)+1)
	}
	chol, err := CholFactor(a)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	want := chol.SolveVec(b)
	dst := make([]float64, n)
	chol.SolveVecInto(dst, b)
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("SolveVecInto[%d] = %v, want %v", i, dst[i], want[i])
		}
	}
	// In place: dst aliases b.
	inPlace := append([]float64(nil), b...)
	chol.SolveVecInto(inPlace, inPlace)
	for i := range want {
		if inPlace[i] != want[i] {
			t.Fatalf("aliased SolveVecInto[%d] = %v, want %v", i, inPlace[i], want[i])
		}
	}
	if n := testing.AllocsPerRun(50, func() {
		chol.SolveVecInto(dst, b)
	}); n != 0 {
		t.Fatalf("SolveVecInto allocates %v times per call", n)
	}
}

// SingularValuesInto computes the singular values of a in descending order
// without accumulating singular vectors, appending into dst (which is
// truncated first). With a warmed workspace and sufficient dst capacity the
// call performs no allocations. Callers that need only σ_max use
// MaxSingularValueInto; this kernel is its reference in the tests.
func SingularValuesInto(ws *CSVDWorkspace, a *CMatrix, dst []float64) []float64 {
	m, n := a.Rows, a.Cols
	swap := false
	if m < n {
		m, n = n, m
		swap = true
	}
	ws.w = growC(ws.w, m*n)
	packColumns(ws.w, a, swap)
	jacobiSweepsPacked(ws.w, nil, m, n)
	dst = dst[:0]
	for j := 0; j < n; j++ {
		col := ws.w[j*m : (j+1)*m]
		norm := 0.0
		for _, c := range col {
			norm += real(c)*real(c) + imag(c)*imag(c)
		}
		dst = append(dst, math.Sqrt(norm))
	}
	// Insertion sort, descending.
	for i := 1; i < len(dst); i++ {
		v := dst[i]
		k := i - 1
		for k >= 0 && dst[k] < v {
			dst[k+1] = dst[k]
			k--
		}
		dst[k+1] = v
	}
	return dst
}
