package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct {
		p    float64
		want float64
	}{{50, 3}, {20, 1}, {80, 4}, {99, 5}, {100, 5}} {
		if got := percentile(append([]float64(nil), xs...), c.p); got != c.want {
			t.Errorf("p%g = %g, want %g", c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples should be NaN")
	}
}

func TestHighestPercentileKeepsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99},
		{1500, 99}, {10000, 99.9}, {100000, 99.99},
	} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
		if p := highestPercentile(c.n); p > 0 && tailBeyond(c.n, p) < minTail {
			t.Errorf("n=%d: p%g has only %d samples beyond", c.n, p, tailBeyond(c.n, p))
		}
	}
}

func TestDueOffsetInterleavesStreams(t *testing.T) {
	const rate = 80.0
	const streams = 2
	// Aggregate arrivals are evenly spaced at 1/rate across streams.
	var prev time.Duration
	for k := 0; k < 10; k++ {
		s, i := k%streams, k/streams
		d := dueOffset(rate, streams, s, i)
		want := time.Duration(float64(k+1) / rate * float64(time.Second))
		if d != want {
			t.Fatalf("window %d of stream %d due at %v, want %v", i, s, d, want)
		}
		if d <= prev {
			t.Fatalf("schedule not increasing at k=%d", k)
		}
		prev = d
	}
	// Each stream sends every streams/rate seconds.
	if got := dueOffset(rate, streams, 1, 5) - dueOffset(rate, streams, 1, 4); got != 25*time.Millisecond {
		t.Fatalf("per-stream period %v, want 25ms", got)
	}
}

func TestAttributeAcksCumulative(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	// One ack covering two windows, a duplicate (rewind-style) ack that
	// covers nothing new, then an ack covering the rest but one.
	acks := []ack{{next: 2, at: at(10)}, {next: 2, at: at(11)}, {next: 4, at: at(20)}}
	got := attributeAcks(acks, 5)
	want := []time.Time{at(10), at(10), at(20), at(20), {}}
	for i := range want {
		if !got[i].Equal(want[i]) {
			t.Errorf("window %d acked at %v, want %v", i, got[i], want[i])
		}
	}
}

func TestSelfTimesSubtractChildren(t *testing.T) {
	ms := func(v int) time.Duration { return time.Duration(v) * time.Millisecond }
	spans := []span{
		{layer: "link", parent: -1, start: ms(0), end: ms(100)},
		{layer: "gateway", parent: 0, start: ms(10), end: ms(40)},
		// Overlaps the previous child: the union is subtracted once.
		{layer: "cs", parent: 0, start: ms(30), end: ms(50)},
		{layer: "cs", parent: 1, start: ms(15), end: ms(25)},
		{layer: "link", parent: -1, start: ms(200), end: ms(210)},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		"link":    ms(100-40) + ms(10),
		"gateway": ms(30 - 10),
		"cs":      ms(20 + 10),
	}
	for l, w := range want {
		if got[l] != w {
			t.Errorf("self(%s) = %v, want %v", l, got[l], w)
		}
	}

	// Without overlapping siblings the self times partition the roots.
	nested := []span{
		{layer: "link", parent: -1, start: ms(0), end: ms(100)},
		{layer: "gateway", parent: 0, start: ms(10), end: ms(40)},
		{layer: "cs", parent: 1, start: ms(15), end: ms(25)},
		{layer: "cs", parent: 0, start: ms(60), end: ms(90)},
	}
	var sum time.Duration
	for _, d := range selfTimes(nested) {
		sum += d
	}
	if sum != ms(100) {
		t.Errorf("self times sum to %v, want the root span's 100ms", sum)
	}
}

func TestRecorderNests(t *testing.T) {
	r := newRecorder(time.Now())
	a := r.begin("a")
	b := r.begin("b")
	r.end(b)
	c := r.begin("c")
	r.end(c)
	r.end(a)
	if r.spans[b].parent != a || r.spans[c].parent != a || r.spans[a].parent != -1 {
		t.Fatalf("parents %+v", r.spans)
	}
	var nilRec *recorder
	nilRec.end(nilRec.begin("x")) // a nil recorder records nothing
}

func TestFrameParserSplitsAnywhere(t *testing.T) {
	frame := func(typ byte, payload ...byte) []byte {
		n := len(payload)
		return append([]byte{'W', 'G', 1, typ, byte(n >> 24), byte(n >> 16), byte(n >> 8), byte(n)}, payload...)
	}
	stream := append(frame(0x81, 1, 2), frame(frameAck, 0, 0, 0, 7, 0)...)
	stream = append(stream, frame(0x83)...)
	for cut := 0; cut <= len(stream); cut++ {
		var p frameParser
		var types []byte
		emit := func(typ byte, payload []byte) { types = append(types, typ) }
		p.feed(stream[:cut], emit)
		p.feed(stream[cut:], emit)
		if len(types) != 3 || types[1] != frameAck {
			t.Fatalf("cut %d: frames %x", cut, types)
		}
	}
}
