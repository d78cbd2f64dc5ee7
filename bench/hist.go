package bench

import (
	"math"
	"math/bits"
)

// Hist is a log-linear histogram of non-negative int64 samples
// (nanoseconds here) in the HdrHistogram style: values below 2^subBits
// get one bucket each, and every power-of-two range above is split into
// 2^subBits equal buckets. A bucket's width is at most 1/2^subBits of
// its lower edge, and Quantile reports the bucket midpoint, so a
// quantile is within 1/2^(subBits+1) (0.4%) of the true sample value.
// Counts are exact, histograms merge by adding counts, and Record never
// allocates, so the load loop can record without disturbing the
// garbage collector it is measuring.
type Hist struct {
	counts [numBuckets]uint64
	n      uint64
	max    int64
}

const (
	subBits    = 7
	subCount   = 1 << subBits
	maxExp     = 46 // 2^46 ns is about 19 hours; larger samples clamp
	numBuckets = (maxExp - subBits + 2) * subCount
)

// bucketOf maps a sample to its bucket index.
func bucketOf(v int64) int {
	if v < subCount {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	e := 63 - bits.LeadingZeros64(uint64(v)) // v in [2^e, 2^(e+1))
	if e > maxExp {
		return numBuckets - 1
	}
	shift := e - subBits
	m := int(v >> shift) // in [subCount, 2*subCount)
	return (shift+1)*subCount + m - subCount
}

// bucketMid returns the midpoint of bucket i, the value Quantile
// reports for every sample in it.
func bucketMid(i int) int64 {
	if i < subCount {
		return int64(i)
	}
	shift := i/subCount - 1
	m := int64(i%subCount + subCount)
	lo := m << shift
	return lo + (int64(1)<<shift)/2
}

// Record adds one sample. Negative samples count as 0.
func (h *Hist) Record(v int64) {
	h.counts[bucketOf(v)]++
	h.n++
	if v > h.max {
		h.max = v
	}
}

// Count returns the number of samples recorded.
func (h *Hist) Count() uint64 { return h.n }

// Max returns the largest sample recorded (exact).
func (h *Hist) Max() int64 { return h.max }

// Merge adds every sample of o to h.
func (h *Hist) Merge(o *Hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	if o.max > h.max {
		h.max = o.max
	}
}

// Quantile returns the q-quantile (0 < q <= 1): the sample of rank
// ceil(q*n) in ascending order, to within the histogram's resolution.
// It returns 0 for an empty histogram.
func (h *Hist) Quantile(q float64) int64 {
	if h.n == 0 {
		return 0
	}
	rank := h.rank(q)
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			if v := bucketMid(i); v < h.max {
				return v
			}
			return h.max
		}
	}
	return h.max
}

// Beyond returns how many samples lie above the q-quantile's rank, the
// count that decides whether a tail percentile is worth reporting.
func (h *Hist) Beyond(q float64) uint64 {
	if h.n == 0 {
		return 0
	}
	return h.n - h.rank(q)
}

// rank is ceil(q*n) clamped to [1, n]; the epsilon keeps products such
// as 0.99*100 from rounding up past the integer they denote.
func (h *Hist) rank(q float64) uint64 {
	r := uint64(math.Ceil(q*float64(h.n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > h.n {
		r = h.n
	}
	return r
}
