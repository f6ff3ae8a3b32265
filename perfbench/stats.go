package main

import (
	"math"
	"sort"
	"time"
)

// minTail is the number of samples that must lie beyond a reported
// percentile for it to be more than one or two outliers.
const minTail = 10

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs, which it sorts in place. It returns NaN for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	rank := nearestRank(len(xs), p)
	return xs[rank-1]
}

// nearestRank is the 1-based rank of the p-th percentile of n samples.
// The small tolerance keeps p/100*n from rounding up past an exact
// integer (0.999*10000 is not exactly 9990 in floating point).
func nearestRank(n int, p float64) int {
	rank := int(math.Ceil(p/100*float64(n) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return rank
}

// tailBeyond returns how many of n samples lie strictly beyond the
// nearest-rank p-th percentile.
func tailBeyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - nearestRank(n, p)
}

// highestPercentile is the percentile rule: of the ladder 50, 90, 99,
// 99.9, 99.99 it returns the highest percentile that still has at least
// minTail of n samples beyond it, or 0 when not even the median has.
func highestPercentile(n int) float64 {
	best := 0.0
	for _, p := range []float64{50, 90, 99, 99.9, 99.99} {
		if tailBeyond(n, p) >= minTail {
			best = p
		}
	}
	return best
}

// median returns the median of xs (sorting a copy), NaN when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// dueOffset is the open-loop schedule: with streams senders sharing an
// aggregate rate (windows per second), window i of stream s is due
// (i*streams+s+1)/rate seconds after the schedule starts. Streams are
// interleaved, so the aggregate arrivals are evenly spaced at 1/rate
// and each stream sends every streams/rate seconds.
func dueOffset(rate float64, streams, s, i int) time.Duration {
	return time.Duration(float64(i*streams+s+1) / rate * float64(time.Second))
}

// ack is one cumulative acknowledgement as the client saw it arrive:
// every window with a sequence number below next is delivered.
type ack struct {
	next uint32
	at   time.Time
}

// attributeAcks maps cumulative acks onto the n windows of a stream:
// window i is delivered by the first ack whose next exceeds i. Acks
// must be in arrival order. A window no ack covers gets the zero time.
func attributeAcks(acks []ack, n int) []time.Time {
	out := make([]time.Time, n)
	covered := 0
	for _, a := range acks {
		for covered < n && uint32(covered) < a.next {
			out[covered] = a.at
			covered++
		}
	}
	return out
}

// span is one timed call the benchmark made into a layer. parent is the
// index of the enclosing span in the same recorder, or -1 for a root.
type span struct {
	layer      string
	parent     int
	start, end time.Duration
}

// recorder collects spans of one goroutine, timed from a shared origin.
// A nil recorder records nothing, so untraced runs pay only a nil check.
type recorder struct {
	origin time.Time
	spans  []span
	open   int
}

func newRecorder(origin time.Time) *recorder {
	return &recorder{origin: origin, open: -1}
}

// begin opens a span of layer under the innermost open span.
func (r *recorder) begin(layer string) int {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{layer: layer, parent: r.open, start: time.Since(r.origin)})
	r.open = len(r.spans) - 1
	return r.open
}

// end closes span id, which must be the innermost open span.
func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	r.spans[id].end = time.Since(r.origin)
	r.open = r.spans[id].parent
}

// selfTimes sums, per layer, each span's duration minus the part of its
// interval covered by its direct children (overlapping children count
// once). The result is the time each layer spent in its own code.
func selfTimes(spans []span) map[string]time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	out := make(map[string]time.Duration)
	for i, s := range spans {
		d := s.end - s.start
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].start < spans[kids[b]].start })
		var covEnd time.Duration = s.start
		for _, k := range kids {
			cs, ce := spans[k].start, spans[k].end
			if cs < covEnd {
				cs = covEnd
			}
			if ce > s.end {
				ce = s.end
			}
			if ce > cs {
				d -= ce - cs
				covEnd = ce
			}
		}
		out[s.layer] += d
	}
	return out
}

// layerTotal sums the durations of the spans of one layer, including
// time in their children.
func layerTotal(spans []span, layer string) time.Duration {
	var sum time.Duration
	for _, s := range spans {
		if s.layer == layer {
			sum += s.end - s.start
		}
	}
	return sum
}
