// Package cluster implements the paper's Algorithm 1 — power behavior
// similarity clustering. Scaled depthwise features are compared with the
// Mahalanobis distance (covariance pseudo-inverse), blended with an
// operator-spacing regularization term so only physically adjacent operators
// cluster together, partitioned with DBSCAN, and post-processed into
// contiguous, non-overlapping power blocks that form the power view.
package cluster

import (
	"fmt"
	"math"
	"math/rand"

	"powerlens/internal/features"
	"powerlens/internal/graph"
	"powerlens/internal/tensor"
)

// Hyperparams are the clustering hyperparameters of Algorithm 1. Eps and
// MinPts are the DBSCAN knobs predicted per-network by the hyperparameter
// model; Alpha and Lambda control the distance blend.
type Hyperparams struct {
	Eps    float64 // DBSCAN neighborhood radius over the blended distance
	MinPts int     // least number of operators per cluster
	Alpha  float64 // weight of the Mahalanobis term in the blend
	Lambda float64 // spacing decay rate of the regularization term
}

// DefaultDistanceParams returns the fixed α, λ used throughout (the paper
// treats them as algorithm constants; only ε and minPts are predicted).
func DefaultDistanceParams() (alpha, lambda float64) { return 0.7, 0.15 }

// Validate checks hyperparameter sanity.
func (h Hyperparams) Validate() error {
	if h.Eps <= 0 || math.IsNaN(h.Eps) {
		return fmt.Errorf("cluster: eps must be positive, got %v", h.Eps)
	}
	if h.MinPts < 1 {
		return fmt.Errorf("cluster: minPts must be >= 1, got %d", h.MinPts)
	}
	if h.Alpha < 0 || h.Alpha > 1 {
		return fmt.Errorf("cluster: alpha must be in [0,1], got %v", h.Alpha)
	}
	if h.Lambda < 0 {
		return fmt.Errorf("cluster: lambda must be >= 0, got %v", h.Lambda)
	}
	return nil
}

// Block is a contiguous run of operator rows [Start, End] (inclusive) in the
// depthwise feature matrix.
type Block struct {
	Start, End int
}

// Len returns the number of operators in the block.
func (b Block) Len() int { return b.End - b.Start + 1 }

// PowerBlock is a power block mapped back onto graph layer IDs.
type PowerBlock struct {
	StartLayer, EndLayer int // inclusive layer-ID range in the graph
	NumOps               int
}

// PowerView is the logical intermediate representation of §2.1.3: the
// network partitioned into power blocks.
type PowerView struct {
	Model  string
	Blocks []PowerBlock
}

// NumBlocks returns the number of power blocks (the Block column of Table 1).
func (pv *PowerView) NumBlocks() int { return len(pv.Blocks) }

// BlendedDistance computes Distance_final of Algorithm 1 over the scaled
// feature rows of x: α·D̂[i,j] + (1-α)·R[i,j], where D̂ is the Mahalanobis
// distance normalized to [0,1] and R penalizes operator spacing.
//
// Note on R: the paper's pseudocode writes R[i,j] = exp(-λ|i-j|), which
// *decreases* with spacing; taken literally the blend would make far-apart
// operators look closer, contradicting the stated goal ("ensure that only
// physically adjacent operators are considered"). We implement the stated
// semantics, R[i,j] = 1 - exp(-λ|i-j|), which differs from the literal
// formula only by the affine map R' = 1 - R (equivalently, a shift of ε).
//
// DNNs repeat layers, so most rows of x repeat too. A distance depends only
// on the values of its two rows, so the quadratic forms run over the distinct
// rows alone and every pair (i, j) reads its distance through the row →
// distinct-row index. The result is bit-identical to the pairwise form over
// all n rows: equal rows give an all-zero diff and so distance 0, the
// distinct matrix's diagonal; a pair met in the opposite order of first
// appearance is computed from the negated diff, and negation is exact under
// round-to-nearest, so the quadratic form keeps its bits.
func BlendedDistance(x *tensor.Matrix, alpha, lambda float64) *tensor.Matrix {
	// Shrinkage regularization: near-duplicate operators make the covariance
	// nearly singular, and a raw pseudo-inverse would amplify measurement
	// noise along the near-zero-variance directions into spurious distance.
	// Shrinking toward a scaled identity bounds that amplification — this is
	// the "regularization" Algorithm 1 applies alongside the pseudo-inverse.
	// The covariance is over every row: how often a layer repeats weights it.
	const shrink = 0.05
	cov := tensor.ShrunkCovariance(x, shrink)
	prec := tensor.PseudoInverse(cov)
	u, idx := distinctRows(x)
	d := tensor.MahalanobisAll(u, prec)

	// Normalize the Mahalanobis term so ε is comparable across networks.
	// MahalanobisAll is exactly symmetric with a zero diagonal, so scanning
	// the strict upper triangle finds the same maximum at a third of the
	// reads, and the blend below only needs each (i<j) pair once. Pairs of
	// equal rows add only zeros, so the distinct pairs hold the maximum.
	maxD := 0.0
	for a := 0; a < u.Rows; a++ {
		row := d.Row(a)
		for b := a + 1; b < u.Rows; b++ {
			if v := row[b]; v > maxD {
				maxD = v
			}
		}
	}
	invD := 1.0
	if maxD > 0 {
		invD = 1 / maxD
	}

	// The spacing term depends only on |i-j|: one exp per offset, not per pair.
	n := x.Rows
	spacing := make([]float64, n)
	for k := 1; k < n; k++ {
		spacing[k] = 1 - math.Exp(-lambda*float64(k))
	}

	out := tensor.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		di := d.Row(int(idx[i]))
		for j := i + 1; j < n; j++ {
			v := alpha*(di[idx[j]]*invD) + (1-alpha)*spacing[j-i]
			out.Set(i, j, v)
			out.Set(j, i, v)
		}
	}
	return out
}

// distinctRows returns the distinct rows of x, numbered in order of first
// appearance, and the distinct-row index of every row of x. Rows are equal
// when their bits are, so +0 and −0 make different rows. A map from row hash
// to the newest distinct row with that hash, chained through next, keeps the
// allocations per call constant.
func distinctRows(x *tensor.Matrix) (*tensor.Matrix, []int32) {
	n := x.Rows
	u := tensor.NewMatrix(n, x.Cols) // rows [0, m) are the distinct rows
	idx := make([]int32, n)
	next := make([]int32, n) // next distinct row with the same hash, or -1
	newest := make(map[uint64]int32, n)
	m := 0
	for i := 0; i < n; i++ {
		r := x.Row(i)
		h := rowHash(r)
		head, ok := newest[h]
		if !ok {
			head = -1
		}
		id := head
		for id >= 0 && !sameBits(u.Row(int(id)), r) {
			id = next[id]
		}
		if id < 0 {
			id = int32(m)
			copy(u.Row(m), r)
			next[m] = head
			newest[h] = id
			m++
		}
		idx[i] = id
	}
	u.Rows, u.Data = m, u.Data[:m*u.Cols]
	return u, idx
}

// rowHash mixes the bits of a row's values into one word.
func rowHash(r []float64) uint64 {
	h := uint64(len(r))
	for _, v := range r {
		h = (h ^ math.Float64bits(v)) * 0x9e3779b97f4a7c15
		h ^= h >> 32
	}
	return h
}

// sameBits reports whether two equal-length rows hold the same bits.
func sameBits(a, b []float64) bool {
	for k, v := range a {
		if math.Float64bits(v) != math.Float64bits(b[k]) {
			return false
		}
	}
	return true
}

// Cluster runs Algorithm 1 over a scaled depthwise feature matrix and
// returns contiguous, non-overlapping blocks covering every row.
func Cluster(x *tensor.Matrix, hp Hyperparams) ([]Block, error) {
	if err := hp.Validate(); err != nil {
		return nil, err
	}
	if x.Rows == 0 {
		return nil, fmt.Errorf("cluster: empty feature matrix")
	}
	if x.Rows == 1 {
		return []Block{{0, 0}}, nil
	}
	d := BlendedDistance(x, hp.Alpha, hp.Lambda)
	return ClusterPrecomputed(d, hp), nil
}

// ClusterPrecomputed runs the DBSCAN + post-processing stages over an
// already-blended distance matrix. The dataset generator sweeps many
// (ε, minPts) cells per network; since α and λ are fixed constants, the
// distance matrix is shared across the sweep. The returned slice is owned
// by the caller; hot loops that sweep many cells should use
// ClusterPrecomputedScratch instead.
func ClusterPrecomputed(d *tensor.Matrix, hp Hyperparams) []Block {
	var sc Scratch
	return append([]Block(nil), ClusterPrecomputedScratch(d, hp, &sc)...)
}

// ClusterPrecomputedScratch is ClusterPrecomputed with caller-provided
// working buffers: repeated calls with the same Scratch reuse the label,
// neighbor, queue and run storage instead of reallocating per cell. The
// returned slice aliases sc and is only valid until sc's next use.
func ClusterPrecomputedScratch(d *tensor.Matrix, hp Hyperparams, sc *Scratch) []Block {
	if d.Rows == 1 {
		sc.blocks = append(sc.blocks[:0], Block{0, 0})
		return sc.blocks
	}
	labels := dbscan(d, hp.Eps, hp.MinPts, sc)
	return processClusters(labels, d, hp.MinPts, hp.Eps, sc)
}

// BuildPowerView extracts scaled depthwise features from g, clusters them,
// and maps the blocks back to layer-ID ranges.
func BuildPowerView(g *graph.Graph, hp Hyperparams) (*PowerView, error) {
	var sc Scratch
	return BuildPowerViewScratch(g, hp, &sc)
}

// BuildPowerViewScratch is BuildPowerView with caller-provided clustering
// scratch: repeated calls with the same Scratch reuse the DBSCAN label,
// neighbor, queue and run buffers instead of reallocating per call — the
// online analysis hot path (core.Framework.Analyze) clusters one network per
// call and was paying those allocations on every request. The returned view
// is owned by the caller (nothing in it aliases sc); results are identical
// to BuildPowerView.
func BuildPowerViewScratch(g *graph.Graph, hp Hyperparams, sc *Scratch) (*PowerView, error) {
	x, ids := features.ScaledDepthwise(g)
	if err := hp.Validate(); err != nil {
		return nil, err
	}
	if x.Rows == 0 {
		return nil, fmt.Errorf("cluster: empty feature matrix")
	}
	var blocks []Block
	if x.Rows == 1 {
		sc.blocks = append(sc.blocks[:0], Block{0, 0})
		blocks = sc.blocks
	} else {
		d := BlendedDistance(x, hp.Alpha, hp.Lambda)
		blocks = ClusterPrecomputedScratch(d, hp, sc)
	}
	return viewFromBlocks(g.Name, blocks, ids), nil
}

func viewFromBlocks(name string, blocks []Block, ids []int) *PowerView {
	pv := &PowerView{Model: name}
	for _, b := range blocks {
		pv.Blocks = append(pv.Blocks, PowerBlock{
			StartLayer: ids[b.Start],
			EndLayer:   ids[b.End],
			NumOps:     b.Len(),
		})
	}
	// The first block starts at layer 0 (the input) so the view covers the
	// whole graph when executed.
	if len(pv.Blocks) > 0 && pv.Blocks[0].StartLayer > 0 {
		pv.Blocks[0].StartLayer = 0
	}
	return pv
}

// RandomPowerView builds the P-R ablation view: the operator sequence is cut
// into a random number of contiguous blocks (at least 2, so the variant is
// distinct from P-N) at random boundaries, ignoring power behavior entirely.
func RandomPowerView(g *graph.Graph, rng *rand.Rand, maxBlocks int) *PowerView {
	_, ids := features.Depthwise(g)
	n := len(ids)
	if maxBlocks < 2 {
		maxBlocks = 2
	}
	k := 2 + rng.Intn(maxBlocks-1)
	if k > n {
		k = n
	}
	// Choose k-1 distinct cut points.
	cuts := map[int]bool{}
	for len(cuts) < k-1 {
		cuts[1+rng.Intn(n-1)] = true
	}
	blocks := []Block{}
	start := 0
	for i := 1; i < n; i++ {
		if cuts[i] {
			blocks = append(blocks, Block{start, i - 1})
			start = i
		}
	}
	blocks = append(blocks, Block{start, n - 1})
	return viewFromBlocks(g.Name, blocks, ids)
}

// WholeNetworkView builds the P-N ablation view: a single block spanning the
// whole network (no clustering; one frequency decision for the entire DNN).
func WholeNetworkView(g *graph.Graph) *PowerView {
	_, ids := features.Depthwise(g)
	return viewFromBlocks(g.Name, []Block{{0, len(ids) - 1}}, ids)
}
