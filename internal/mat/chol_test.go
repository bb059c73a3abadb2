package mat

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// cholFactorAt is the element-accessor Cholesky loop CholFactor replaced.
// It is kept as the reference that pins the row-slice kernel bit for bit:
// both sum the inner products in ascending k.
func cholFactorAt(a *Matrix) (*Matrix, error) {
	n := a.Rows
	l := NewMatrix(n, n)
	for j := 0; j < n; j++ {
		d := a.At(j, j)
		for k := 0; k < j; k++ {
			d -= l.At(j, k) * l.At(j, k)
		}
		if d <= 0 || math.IsNaN(d) {
			return nil, ErrNotPD
		}
		ljj := math.Sqrt(d)
		l.Set(j, j, ljj)
		for i := j + 1; i < n; i++ {
			s := a.At(i, j)
			for k := 0; k < j; k++ {
				s -= l.At(i, k) * l.At(j, k)
			}
			l.Set(i, j, s/ljj)
		}
	}
	return l, nil
}

// hilbertShifted is an ill-conditioned SPD matrix (Hilbert plus a tiny
// diagonal), where any reordering of the inner sums shows up in the last
// bits of the factor.
func hilbertShifted(n int) *Matrix {
	a := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a.Set(i, j, 1/float64(i+j+1))
		}
		a.Set(i, i, a.At(i, i)+1e-9)
	}
	return a
}

func TestCholFactorMatchesElementLoopBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	cases := []*Matrix{hilbertShifted(12), hilbertShifted(40)}
	for _, n := range []int{1, 2, 3, 17, 64, 150} {
		cases = append(cases, randSPD(rng, n))
	}
	for ci, a := range cases {
		ch, err := CholFactor(a)
		if err != nil {
			t.Fatalf("case %d (n=%d): %v", ci, a.Rows, err)
		}
		want, err := cholFactorAt(a)
		if err != nil {
			t.Fatalf("case %d (n=%d): reference: %v", ci, a.Rows, err)
		}
		for k, v := range ch.L().Data {
			if math.Float64bits(v) != math.Float64bits(want.Data[k]) {
				t.Fatalf("case %d (n=%d): L[%d,%d] = %v, element loop gives %v",
					ci, a.Rows, k/a.Cols, k%a.Cols, v, want.Data[k])
			}
		}
	}
	// Both reject the same indefinite matrix.
	bad := NewMatrixFrom([][]float64{{1, 2}, {2, 1}})
	if _, err := CholFactor(bad); err != ErrNotPD {
		t.Fatalf("indefinite matrix: err = %v, want ErrNotPD", err)
	}
}

// BenchmarkCholFactor times the factorization at the cost-Gramian sizes of
// enforcement (one row per pole).
func BenchmarkCholFactor(b *testing.B) {
	for _, n := range []int{100, 500} {
		a := randSPD(rand.New(rand.NewSource(5)), n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := CholFactor(a); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
