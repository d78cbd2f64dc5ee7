package bench

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// TestHistQuantilesMatchSortedOracle checks every reported quantile
// against the exact order statistic of the same samples: exact below
// the linear range, within 1% above it, with exact counts and maximum.
func TestHistQuantilesMatchSortedOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	dists := map[string]func() int64{
		"small":   func() int64 { return rng.Int63n(200) },
		"latency": func() int64 { return int64(math.Exp(rng.NormFloat64()*1.5 + 12)) }, // around 160µs in ns
		"wide":    func() int64 { return int64(math.Exp(rng.Float64() * 40)) },
		"huge":    func() int64 { return rng.Int63() }, // beyond maxExp: clamped, max exact
	}
	qs := []float64{0.001, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1}
	for name, draw := range dists {
		for _, n := range []int{1, 2, 10, 1000, 50000} {
			var h Hist
			xs := make([]int64, n)
			for i := range xs {
				xs[i] = draw()
				h.Record(xs[i])
			}
			sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
			if h.Count() != uint64(n) || h.Max() != xs[n-1] {
				t.Fatalf("%s n=%d: count %d max %d, want %d %d", name, n, h.Count(), h.Max(), n, xs[n-1])
			}
			for _, q := range qs {
				rank := max(1, int(math.Ceil(q*float64(n)-1e-9)))
				want := xs[rank-1]
				got := h.Quantile(q)
				if want>>maxExp > 0 {
					continue // clamped region: only Max is exact
				}
				if want < subCount && got != want {
					t.Errorf("%s n=%d q=%g: got %d, want exactly %d", name, n, q, got, want)
				}
				if rel := math.Abs(float64(got-want)) / float64(want); want > 0 && rel > 0.01 {
					t.Errorf("%s n=%d q=%g: got %d, want %d (relative error %.4f)", name, n, q, got, want, rel)
				}
			}
			if b := h.Beyond(0.99); b != uint64(n)-uint64(math.Max(1, math.Ceil(0.99*float64(n)-1e-9))) {
				t.Errorf("%s n=%d: Beyond(0.99) = %d", name, n, b)
			}
		}
	}
}

// TestHistMergeIsUnion checks that merging equals recording the union.
func TestHistMergeIsUnion(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var a, b, all Hist
	for i := 0; i < 5000; i++ {
		v := int64(math.Exp(rng.Float64() * 30))
		all.Record(v)
		if i%3 == 0 {
			a.Record(v)
		} else {
			b.Record(v)
		}
	}
	a.Merge(&b)
	if a != all {
		t.Fatal("merged histogram differs from the histogram of all samples")
	}
}

// TestHistRecordAllocsNothing keeps Record usable inside the load loop.
func TestHistRecordAllocsNothing(t *testing.T) {
	var h Hist
	v := int64(1)
	if n := testing.AllocsPerRun(1000, func() {
		h.Record(v)
		v = v*7 + 13
	}); n != 0 {
		t.Fatalf("Record allocates %.1f times per call", n)
	}
}

// TestHistBucketsAreContiguous pins the bucket layout: every bucket's
// midpoint maps back to it, and bucket edges never overlap.
func TestHistBucketsAreContiguous(t *testing.T) {
	prev := int64(-1)
	for i := 0; i < numBuckets; i++ {
		mid := bucketMid(i)
		if got := bucketOf(mid); got != i {
			t.Fatalf("bucket %d: midpoint %d maps to bucket %d", i, mid, got)
		}
		if mid <= prev {
			t.Fatalf("bucket %d midpoint %d not above bucket %d's %d", i, mid, i-1, prev)
		}
		prev = mid
	}
}
