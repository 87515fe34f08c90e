package cluster

import (
	"math"
	"math/rand"
	"testing"

	"powerlens/internal/features"
	"powerlens/internal/models"
	"powerlens/internal/tensor"
)

// blendedDistanceReference is the pre-optimization implementation: full-matrix
// max scan (diagonal included), in-place Scale, and one exp per (i, j) pair.
// The production BlendedDistance must reproduce it bit for bit.
func blendedDistanceReference(x *tensor.Matrix, alpha, lambda float64) *tensor.Matrix {
	const shrink = 0.05
	cov := tensor.ShrunkCovariance(x, shrink)
	prec := tensor.PseudoInverse(cov)
	d := tensor.MahalanobisAll(x, prec)

	maxD := 0.0
	for _, v := range d.Data {
		if v > maxD {
			maxD = v
		}
	}
	if maxD > 0 {
		d.Scale(1 / maxD)
	}

	n := x.Rows
	out := tensor.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			spacing := 1 - math.Exp(-lambda*math.Abs(float64(i-j)))
			out.Set(i, j, alpha*d.At(i, j)+(1-alpha)*spacing)
		}
	}
	return out
}

// checkBlendedDistance fails t unless BlendedDistance(x) is bit-equal to the
// pairwise reference over all rows.
func checkBlendedDistance(t testing.TB, name string, x *tensor.Matrix) {
	t.Helper()
	alpha, lambda := DefaultDistanceParams()
	got := BlendedDistance(x, alpha, lambda)
	want := blendedDistanceReference(x, alpha, lambda)
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape (%d,%d) != (%d,%d)", name, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("%s: element (%d,%d): %v != reference %v",
				name, i/want.Cols, i%want.Cols, got.Data[i], want.Data[i])
		}
	}
}

func TestBlendedDistanceMatchesReference(t *testing.T) {
	for _, name := range models.Names() {
		x, _ := features.ScaledDepthwise(models.MustBuild(name))
		checkBlendedDistance(t, name, x)
	}

	// Generator networks, drawn with the dataset generator's per-network
	// seeds (seed·1_000_003 + i).
	const seed = 7
	for i := 0; i < 60; i++ {
		rng := rand.New(rand.NewSource(seed*1_000_003 + int64(i)))
		g := models.RandomDNN(rng, models.DefaultGeneratorConfig(), i)
		x, _ := features.ScaledDepthwise(g)
		checkBlendedDistance(t, g.Name, x)
	}

	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 5; trial++ {
		rows := 1 + rng.Intn(40)
		x := tensor.NewMatrix(rows, 6)
		for i := range x.Data {
			x.Data[i] = rng.NormFloat64()
		}
		checkBlendedDistance(t, "random", x)
	}

	a := []float64{0.5, -1.25, 3, 0, 2}
	b := []float64{-0.75, 2, 0.125, 1, -4}
	c := []float64{1.5, 0, -2, 0.25, 0.5}
	negZero := []float64{0.5, -1.25, 3, math.Copysign(0, -1), 2}
	lastApart := []float64{0.5, -1.25, 3, 0, 2.5}
	firstApart := []float64{0.25, -1.25, 3, 0, 2}
	for _, tc := range []struct {
		name string
		rows [][]float64
	}{
		// Rows 0 and 2 are equal, so the pair (1, 2) meets distinct rows 1
		// and 0 in the opposite order of first appearance.
		{"reversed pair", [][]float64{a, b, a}},
		{"reversed pairs", [][]float64{a, b, c, b, a, c, a}},
		{"all equal", [][]float64{b, b, b, b}},
		{"signed zero", [][]float64{a, negZero}},
		{"signed zero among others", [][]float64{a, b, negZero, c, a}},
		{"one column apart", [][]float64{a, lastApart, b, firstApart, a, lastApart}},
		{"single row", [][]float64{c}},
	} {
		checkBlendedDistance(t, tc.name, tensor.FromRows(tc.rows))
	}
}

// The distinct rows are numbered in order of first appearance, and rows are
// equal only when their bits are.
func TestDistinctRows(t *testing.T) {
	negZero := math.Copysign(0, -1)
	x := tensor.FromRows([][]float64{
		{1, 0}, {2, 3}, {1, 0}, {1, negZero}, {2, 3}, {1, negZero}, {4, 4},
	})
	u, idx := distinctRows(x)
	wantIdx := []int32{0, 1, 0, 2, 1, 2, 3}
	for i, w := range wantIdx {
		if idx[i] != w {
			t.Fatalf("idx = %v, want %v", idx, wantIdx)
		}
	}
	if u.Rows != 4 || u.Cols != 2 {
		t.Fatalf("distinct matrix is %dx%d, want 4x2", u.Rows, u.Cols)
	}
	for i, id := range idx {
		if !sameBits(u.Row(int(id)), x.Row(i)) {
			t.Fatalf("row %d: distinct row %d is %v, want %v", i, id, u.Row(int(id)), x.Row(i))
		}
	}
}

// distinctRows allocates a fixed number of blocks, however many rows it
// reads.
func TestDistinctRowsAllocsConstant(t *testing.T) {
	allocs := func(n int) float64 {
		x := tensor.NewMatrix(n, 4)
		for i := range x.Data {
			x.Data[i] = float64(i)
		}
		return testing.AllocsPerRun(20, func() { distinctRows(x) })
	}
	if small, large := allocs(16), allocs(512); small != large {
		t.Fatalf("distinctRows allocates %v blocks at 16 rows but %v at 512", small, large)
	}
}

// fuzzValues is the value palette of FuzzBlendedDistance: small enough that
// rows repeat often, with both signed zeros.
var fuzzValues = []float64{0, math.Copysign(0, -1), 1, -1, 0.5, -2.25, 3, 1e-3, 1e3}

// FuzzBlendedDistance builds a matrix of up to 64 rows from a palette of up to
// 8 rows over fuzzValues, so most rows repeat, and checks BlendedDistance
// against the pairwise reference.
func FuzzBlendedDistance(f *testing.F) {
	f.Add(uint8(4), []byte{0, 1, 2, 3, 4, 5, 6, 7}, []byte{0, 1, 0})
	f.Add(uint8(2), []byte{0, 2, 1, 2, 3, 4}, []byte{0, 1, 2, 1, 0, 2, 2, 0})
	f.Add(uint8(0), []byte{5}, []byte{0, 0, 0, 0})
	f.Add(uint8(5), []byte{2, 3, 4, 5, 6, 7, 8, 0, 1, 2, 3, 4}, []byte{1, 0, 1, 0, 1})
	f.Add(uint8(3), []byte{0, 6, 7, 1, 6, 7, 4, 4, 4}, []byte{2})
	f.Add(uint8(2), []byte{2, 4, 6, 2, 4, 7, 3, 4, 7}, []byte{0, 1, 2, 1, 0})
	f.Fuzz(func(t *testing.T, cols uint8, values, picks []byte) {
		d := 1 + int(cols%6)
		p := min(len(values)/d, 8)
		n := min(len(picks), 64)
		if p == 0 || n == 0 {
			return
		}
		x := tensor.NewMatrix(n, d)
		for i, pick := range picks[:n] {
			row := int(pick) % p
			for k := range d {
				x.Set(i, k, fuzzValues[int(values[row*d+k])%len(fuzzValues)])
			}
		}
		checkBlendedDistance(t, "fuzz", x)
	})
}

// A reused Scratch must not change clustering results: sweep the default
// grid over several models with one Scratch and compare every cell against
// the allocation-per-call path.
func TestClusterPrecomputedScratchEquivalence(t *testing.T) {
	alpha, lambda := DefaultDistanceParams()
	var sc Scratch
	for _, name := range []string{"resnet50", "densenet201", "googlenet"} {
		x, _ := features.ScaledDepthwise(models.MustBuild(name))
		d := BlendedDistance(x, alpha, lambda)
		for _, eps := range []float64{0.15, 0.22, 0.30, 0.40} {
			for _, minPts := range []int{2, 8} {
				hp := Hyperparams{Eps: eps, MinPts: minPts, Alpha: alpha, Lambda: lambda}
				want := ClusterPrecomputed(d, hp)
				got := ClusterPrecomputedScratch(d, hp, &sc)
				if len(got) != len(want) {
					t.Fatalf("%s %+v: %d blocks != %d", name, hp, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s %+v: block %d %+v != %+v", name, hp, i, got[i], want[i])
					}
				}
			}
		}
	}
}
