package mat

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"testing"
)

// francisGoldenPath holds the eigenvalues and Schur forms that the Francis
// iteration computed before its values-only and Schur modes were merged
// into one kernel. TestFrancisGolden pins the kernel to it bit for bit.
// The recorded T is that iteration's T with the stale bulge entries below
// its first subdiagonal set to zero, as SchurDecompose now returns it;
// every entry on and above the subdiagonal, Q, WR and WI are as computed.
const francisGoldenPath = "testdata/francis_golden.json"

// eigenCase is one named input of the Francis pins.
type eigenCase struct {
	name string
	a    *Matrix
}

// eigenBitwiseCases are random, symmetric (real eigenvalues, so every 2×2
// block is a real pair, which only the Schur mode rotates), Hamiltonian-
// shaped and pre-reduced inputs. The pre-reduced ones are upper Hessenberg
// with exact-zero and tiny subdiagonals, so deflation windows split and
// later grow back upward.
func eigenBitwiseCases() []eigenCase {
	rng := rand.New(rand.NewSource(22))
	sizes := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 16, 17, 24, 31, 48, 64, 97, 130, 200}
	var cases []eigenCase
	for _, n := range sizes {
		cases = append(cases, eigenCase{"random", randMatrix(rng, n, n)})
		sym := randMatrix(rng, n, n)
		sym = sym.Add(sym.T())
		cases = append(cases, eigenCase{"symmetric", sym})
		pre := randMatrix(rng, n, n)
		for i := 1; i < n; i++ {
			for j := 0; j < i-1; j++ {
				pre.Set(i, j, 0)
			}
			switch i % 5 {
			case 2:
				pre.Set(i, i-1, 0)
			case 4:
				pre.Set(i, i-1, 1e-19*pre.At(i, i-1))
			}
		}
		cases = append(cases, eigenCase{"pre-reduced", pre})
		if n%2 == 0 {
			cases = append(cases, eigenCase{"hamiltonian", hamiltonianShaped(rng, n/2, 1+n%3)})
		}
	}
	return cases
}

// zeroScaleCases have a zero diagonal in their Hessenberg form, so the
// deflation test meets s == 0 and needs the norm of the whole matrix.
func zeroScaleCases() []eigenCase {
	n := 6
	shift := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		shift.Set(i, (i+1)%n, 1)
	}
	rot := NewMatrixFrom([][]float64{{0, 2}, {-3, 0}})
	return []eigenCase{{"rotation", rot}, {"cyclic-shift", shift}}
}

// schurGoldenCases are random and symmetric inputs of order 1…64.
func schurGoldenCases() []eigenCase {
	rng := rand.New(rand.NewSource(24))
	var cases []eigenCase
	for n := 1; n <= 64; n++ {
		cases = append(cases, eigenCase{"random", randMatrix(rng, n, n)})
		sym := randMatrix(rng, n, n)
		cases = append(cases, eigenCase{"symmetric", sym.Add(sym.T())})
	}
	return cases
}

// francisGolden is the golden file's layout. Eigenvalues are stored in
// full, as the hex of their float64 bits (real, imaginary, per value).
// The Schur factors are stored as SHA-256 digests of their float64 bits,
// which pin the same bits without ~2 MB of raw matrices.
type francisGolden struct {
	EigenValues []goldenEigenValues `json:"eigenvalues"`
	Schur       []goldenSchur       `json:"schur"`
}

type goldenEigenValues struct {
	Name string `json:"name"`
	N    int    `json:"n"`
	Bits string `json:"bits"`
}

type goldenSchur struct {
	Name  string `json:"name"`
	N     int    `json:"n"`
	WantQ bool   `json:"want_q"`
	T     string `json:"t_sha256"`
	Q     string `json:"q_sha256"` // "" without Q
	W     string `json:"wr_wi_sha256"`
}

// eigenBitsHex is the hex of the float64 bits of ev, real part first.
func eigenBitsHex(ev []complex128) string {
	b := make([]byte, 0, 16*len(ev))
	for _, z := range ev {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(real(z)))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(imag(z)))
	}
	return hex.EncodeToString(b)
}

// floatsDigest is the SHA-256 of the float64 bits of xs, in order.
func floatsDigest(xs ...[]float64) string {
	h := sha256.New()
	var b [8]byte
	for _, x := range xs {
		for _, v := range x {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// buildFrancisGolden computes every entry of the golden file with the
// current kernels.
func buildFrancisGolden(t testing.TB) francisGolden {
	var g francisGolden
	for _, c := range append(eigenBitwiseCases(), zeroScaleCases()...) {
		ev, err := EigenValues(c.a)
		if err != nil {
			t.Fatalf("%s n=%d: %v", c.name, c.a.Rows, err)
		}
		g.EigenValues = append(g.EigenValues, goldenEigenValues{c.name, c.a.Rows, eigenBitsHex(ev)})
	}
	for _, c := range schurGoldenCases() {
		for _, wantQ := range []bool{false, true} {
			sch, err := SchurDecompose(c.a, wantQ)
			if err != nil {
				t.Fatalf("%s n=%d wantQ=%v: %v", c.name, c.a.Rows, wantQ, err)
			}
			e := goldenSchur{Name: c.name, N: c.a.Rows, WantQ: wantQ, T: floatsDigest(sch.T.Data), W: floatsDigest(sch.WR, sch.WI)}
			if sch.Q != nil {
				e.Q = floatsDigest(sch.Q.Data)
			}
			g.Schur = append(g.Schur, e)
		}
	}
	return g
}

// TestFrancisGolden pins EigenValues and SchurDecompose (T, Q, WR, WI) bit
// for bit to the recorded outputs of the two Francis kernels that preceded
// the merged one.
func TestFrancisGolden(t *testing.T) {
	raw, err := os.ReadFile(francisGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want francisGolden
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	got := buildFrancisGolden(t)
	if len(got.EigenValues) != len(want.EigenValues) || len(got.Schur) != len(want.Schur) {
		t.Fatalf("golden has %d eigenvalue and %d Schur entries, the cases give %d and %d",
			len(want.EigenValues), len(want.Schur), len(got.EigenValues), len(got.Schur))
	}
	for i, w := range want.EigenValues {
		if got.EigenValues[i] != w {
			t.Errorf("eigenvalues %d (%s n=%d) differ from the golden bits", i, w.Name, w.N)
		}
	}
	for i, w := range want.Schur {
		if g := got.Schur[i]; g != w {
			t.Errorf("Schur %d (%s n=%d wantQ=%v): T match %v, Q match %v, WR/WI match %v",
				i, w.Name, w.N, w.WantQ, g.T == w.T, g.Q == w.Q, g.W == w.W)
		}
	}
}
