package mat

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// householderRowMajor is the row-major Householder reduction the
// column-major kernels replaced, kept as their bitwise oracle: R on and
// above the diagonal, the normalized reflector vectors below it, the
// scalars in beta (nil to drop them). v and s are scratch of length ≥
// a.Rows and ≥ a.Cols. Each trailing column's dot product with the
// reflector accumulates in ascending row order, one row at a time.
func householderRowMajor(a *Matrix, beta, v, s []float64) {
	m, n := a.Rows, a.Cols
	data := a.Data
	for j := 0; j < min(m, n); j++ {
		amax := 0.0
		for i := j; i < m; i++ {
			if a := math.Abs(data[i*n+j]); a > amax {
				amax = a
			}
		}
		if amax == 0 {
			continue
		}
		sumSq := 0.0
		for i := j; i < m; i++ {
			t := data[i*n+j] / amax
			sumSq += t * t
		}
		norm := amax * math.Sqrt(sumSq)
		x0 := data[j*n+j]
		alpha := norm
		if x0 > 0 {
			alpha = -norm
		}
		v0 := x0 - alpha
		v[j] = 1
		for i := j + 1; i < m; i++ {
			v[i] = data[i*n+j] / v0
		}
		bj := -v0 / alpha
		if beta != nil {
			beta[j] = bj
		}
		sj := s[:n-j]
		row := data[j*n : j*n+n]
		copy(sj, row[j:])
		for i := j + 1; i < m; i++ {
			ri := data[i*n+j : i*n+n][:len(sj)]
			vi := v[i]
			for c, x := range ri {
				sj[c] += vi * x
			}
		}
		for c := range sj {
			sj[c] *= bj
		}
		for c, x := range sj {
			row[j+c] -= x
		}
		for i := j + 1; i < m; i++ {
			ri := data[i*n+j : i*n+n][:len(sj)]
			vi := v[i]
			for c, x := range sj {
				ri[c] -= x * vi
			}
		}
		row[j] = alpha
		for i := j + 1; i < m; i++ {
			data[i*n+j] = v[i]
		}
	}
}

// applyQTRowMajor is the row-major ApplyQTMatrix the column-major one
// replaced: it applies the reflectors of qr (reduced by
// householderRowMajor, scalars beta) to the row-major b, one row at a time.
func applyQTRowMajor(qr *Matrix, beta []float64, b *Matrix) {
	m, n, nb := qr.Rows, qr.Cols, b.Cols
	q, data := qr.Data, b.Data
	s := make([]float64, nb)
	for j, bj := range beta {
		if bj == 0 {
			continue
		}
		row := data[j*nb : j*nb+nb]
		copy(s, row)
		for i := j + 1; i < m; i++ {
			ri := data[i*nb : i*nb+nb]
			vi := q[i*n+j]
			for c, x := range ri {
				s[c] += vi * x
			}
		}
		for c := range s {
			s[c] *= bj
		}
		for c, x := range s {
			row[c] -= x
		}
		for i := j + 1; i < m; i++ {
			ri := data[i*nb : i*nb+nb]
			vi := q[i*n+j]
			for c, x := range s {
				ri[c] -= x * vi
			}
		}
	}
}

// colMajorOf copies a row-major matrix into column-major storage.
func colMajorOf(a *Matrix) ColMajor {
	c := NewColMajor(a.Rows, a.Cols)
	for i := 0; i < a.Rows; i++ {
		for j, x := range a.Row(i) {
			c.Data[j*a.Rows+i] = x
		}
	}
	return c
}

// wideRangeMatrix draws entries N(0,1)·e^u with u uniform on [−9, 9], so
// magnitudes span about e^±9 like the weighted Vector Fitting blocks.
// Every fifth column of a wide-enough matrix is zero.
func wideRangeMatrix(rng *rand.Rand, m, n int) *Matrix {
	a := NewMatrix(m, n)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64() * math.Exp(18*rng.Float64()-9)
	}
	for j := 4; j < n; j += 5 {
		for i := 0; i < m; i++ {
			a.Set(i, j, 0)
		}
	}
	return a
}

// sameColMajorBits reports the first (i, j) where the column-major got
// and the row-major want differ by bits, or ok.
func sameColMajorBits(got ColMajor, want *Matrix) (i, j int, ok bool) {
	for i := 0; i < want.Rows; i++ {
		for j := 0; j < want.Cols; j++ {
			if math.Float64bits(got.Col(j)[i]) != math.Float64bits(want.At(i, j)) {
				return i, j, false
			}
		}
	}
	return 0, 0, true
}

// TestQRColumnMajorMatchesRowMajorOracle pins the column-major kernels to
// the row-major oracle by bits on random shapes (m = 14…220, n = 1…26,
// entries spanning e^±9, some zero columns): QRFactor's R, reflectors and
// scalars; ApplyQTMatrix on extra columns; QRTriangularize.
func TestQRColumnMajorMatchesRowMajorOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(2208))
	for trial := 0; trial < 60; trial++ {
		m := 14 + rng.Intn(207)
		n := 1 + rng.Intn(min(26, m))
		a := wideRangeMatrix(rng, m, n)

		f := QRFactor(a)
		want := a.Clone()
		beta := make([]float64, n)
		householderRowMajor(want, beta, make([]float64, m), make([]float64, n))
		if i, j, ok := sameColMajorBits(f.a, want); !ok {
			t.Fatalf("trial %d (%d×%d): QRFactor entry (%d,%d) = %v, oracle %v", trial, m, n, i, j, f.a.Col(j)[i], want.At(i, j))
		}
		for j := range beta {
			if math.Float64bits(f.beta[j]) != math.Float64bits(beta[j]) {
				t.Fatalf("trial %d: beta[%d] = %v, oracle %v", trial, j, f.beta[j], beta[j])
			}
		}

		nb := 1 + rng.Intn(14)
		b := wideRangeMatrix(rng, m, nb)
		bc := colMajorOf(b)
		f.ApplyQTMatrix(bc)
		applyQTRowMajor(want, beta, b)
		if i, j, ok := sameColMajorBits(bc, b); !ok {
			t.Fatalf("trial %d (%d×%d, %d extra): ApplyQTMatrix entry (%d,%d) = %v, oracle %v", trial, m, n, nb, i, j, bc.Col(j)[i], b.At(i, j))
		}

		tri := colMajorOf(a)
		QRTriangularize(tri)
		rt := a.Clone()
		householderRowMajor(rt, nil, make([]float64, m), make([]float64, n))
		for i := 1; i < m; i++ {
			clear(rt.Row(i)[:min(i, n)])
		}
		if i, j, ok := sameColMajorBits(tri, rt); !ok {
			t.Fatalf("trial %d (%d×%d): QRTriangularize entry (%d,%d) = %v, oracle %v", trial, m, n, i, j, tri.Col(j)[i], rt.At(i, j))
		}
	}
}

// TestQRApplyQTMatrixConcurrent shares one factor among goroutines, each
// reducing its own block, as Vector Fitting's sweep fan-out does; run
// under -race it checks that ApplyQTMatrix only reads the factor, and
// every block must match the sequential result bit for bit.
func TestQRApplyQTMatrixConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	m, n, nb := 202, 13, 13
	f := QRFactor(wideRangeMatrix(rng, m, n))
	const blocks = 8
	in := make([]*Matrix, blocks)
	want := make([]ColMajor, blocks)
	for i := range in {
		in[i] = wideRangeMatrix(rng, m, nb)
		want[i] = colMajorOf(in[i])
		f.ApplyQTMatrix(want[i])
	}
	got := make([]ColMajor, blocks)
	var wg sync.WaitGroup
	for i := range in {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = colMajorOf(in[i])
			f.ApplyQTMatrix(got[i])
			QRTriangularize(got[i].RowsFrom(n))
		}(i)
	}
	wg.Wait()
	for i := range got {
		QRTriangularize(want[i].RowsFrom(n))
		for k := range want[i].Data {
			if math.Float64bits(got[i].Data[k]) != math.Float64bits(want[i].Data[k]) {
				t.Fatalf("block %d: entry %d = %v, sequential %v", i, k, got[i].Data[k], want[i].Data[k])
			}
		}
	}
}

// BenchmarkQRCompress202x13 times one Vector Fitting response compression
// at the paper-flow size (2k = 202 rows, 12 poles): the shared factor's
// reflectors applied to a 202×13 block, then the QR of its trailing rows,
// column-major against the row-major oracle.
func BenchmarkQRCompress202x13(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	m, n := 202, 13
	a1 := wideRangeMatrix(rng, m, n)
	a2 := wideRangeMatrix(rng, m, n)
	b.Run("column-major", func(b *testing.B) {
		f := QRFactor(a1)
		blk := NewColMajor(m, n)
		src := colMajorOf(a2)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			copy(blk.Data, src.Data)
			f.ApplyQTMatrix(blk)
			QRTriangularize(blk.RowsFrom(n))
		}
	})
	b.Run("row-major-oracle", func(b *testing.B) {
		qr := a1.Clone()
		beta := make([]float64, n)
		householderRowMajor(qr, beta, make([]float64, m), make([]float64, n))
		blk := NewMatrix(m, n)
		v, s := make([]float64, m), make([]float64, n)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			copy(blk.Data, a2.Data)
			applyQTRowMajor(qr, beta, blk)
			tail := &Matrix{Rows: m - n, Cols: n, Data: blk.Data[n*n:]}
			householderRowMajor(tail, nil, v, s)
		}
	})
}
