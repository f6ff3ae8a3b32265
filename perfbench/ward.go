package main

import (
	"fmt"
	"math"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"time"

	"wbsn/internal/core"
	"wbsn/internal/cs"
	"wbsn/internal/delineation"
	"wbsn/internal/ecg"
	"wbsn/internal/gateway"
	"wbsn/internal/link"
	"wbsn/internal/netgw"
	"wbsn/internal/telemetry"
)

// The ward workload: a loopback gateway configured like
// `wbsn-gateway -warm -solver-tol 1e-3` serves one wearable stream per
// core. Each stream sends its record wardRepeats times open loop (a
// fresh session each time), offering windows at wardRate, and after
// each open-loop send resends it closed loop, unpaced, to find the
// sustained rate. Interleaving spreads both loops over the whole run,
// so a slow spell of the host weighs on them alike; repeating one
// record per stream keeps the in-process reference reconstruction,
// which every run needs, to a quarter of the open loop.
const (
	// wardRate is the open-loop offered rate in windows per second
	// across all streams. The closed loop sustains about 200 windows/s
	// on the 2-core reference host, but the host's speed drifts by up to
	// 2x over seconds; at this rate a 2x slow spell still leaves the
	// solver a third idle, so the tail measures the gateway's queueing
	// rather than a saturated host.
	wardRate = 64.0
	// wardOpenShare is the share of --seconds the open loop lasts; the
	// closed-loop sends take most of the rest.
	wardOpenShare = 0.75
	wardRepeats   = 4
	// wardLagShare bounds gen.lag_ms_p99 as a share of the per-stream
	// send period; a later generator invalidates the run, because its
	// latencies would measure the generator instead of the gateway. The
	// generator shares the process with the gateway: while both Ps run
	// solver windows, a due sender waits for one to free up (up to the
	// runtime's 10 ms preemption slice), so half the period is the bound
	// that separates that from a generator falling behind its schedule.
	wardLagShare = 0.5
	wardCSRatio  = 60
	wardTol      = 1e-3
)

// wardSet is ward's prepared state: the link-encoded frames of every
// stream's record and the running server. The records themselves are
// not kept (the reference regenerates them), so the live heap while
// measuring is the gateway's and the frames'.
type wardSet struct {
	seed    int64
	streams int
	// recWin is the windows per record.
	recWin int
	ncfg   core.Config
	gcfg   gateway.Config
	frames [][][]byte
	srv    *netgw.Server
}

// record generates stream s's record.
func (w *wardSet) record(s int) *ecg.Record {
	return ecg.Generate(ecg.Config{Seed: w.seed*1000 + int64(s), Duration: float64(w.recWin) * w.windowS()})
}

// windowS is the ECG duration of one CS window in seconds.
func (w *wardSet) windowS() float64 { return float64(w.ncfg.CSWindow) / w.ncfg.Fs }

func buildWard(seed int64, streams, recWin int) (*wardSet, error) {
	ncfg, gcfg, err := netgw.GatewayConfigFor(seed, wardCSRatio, 0, wardTol, true)
	if err != nil {
		return nil, err
	}
	w := &wardSet{seed: seed, streams: streams, recWin: recWin, ncfg: ncfg, gcfg: gcfg}
	node, err := core.NewNode(ncfg)
	if err != nil {
		return nil, err
	}
	for s := 0; s < streams; s++ {
		rec := w.record(s)
		stream, err := node.NewStream()
		if err != nil {
			return nil, err
		}
		events, err := stream.PushBlock(rec.Leads)
		if err != nil {
			return nil, err
		}
		var frames [][]byte
		for _, e := range events {
			if e.Kind != core.EventPacket || e.Measurements == nil {
				continue
			}
			f, err := link.Encode(link.Packet{Seq: uint32(len(frames)), WindowStart: uint32(e.At), Measurements: e.Measurements})
			if err != nil {
				return nil, err
			}
			frames = append(frames, f)
		}
		if len(frames) != recWin {
			return nil, fmt.Errorf("record %d encoded to %d windows, want %d", s, len(frames), recWin)
		}
		w.frames = append(w.frames, frames)
	}
	w.srv, err = netgw.Serve(netgw.ServerConfig{
		Addr:      "127.0.0.1:0",
		Gateway:   gcfg,
		AckEvery:  1,
		Telemetry: telemetry.NewSet(telemetry.NewRegistry()),
	})
	if err != nil {
		return nil, err
	}
	return w, nil
}

func (w *wardSet) close() {
	if w != nil && w.srv != nil {
		w.srv.Close()
	}
}

// wardSend is the outcome of one send: every stream delivering the
// first n windows of its record over its own connection.
type wardSend struct {
	n       int
	stats   []*wireStats
	results []netgw.StreamResult
	errs    []error
	spans   [][]span
	wall    time.Duration
	// mallocs counts the process's heap allocations during the send.
	mallocs uint64
}

// send delivers every stream's record, one connection per stream, with
// stream IDs from idBase. paced offers the windows on the open-loop
// schedule; traced records a span per call.
func (w *wardSet) send(idBase uint64, paced, traced bool) *wardSend {
	n := w.recWin
	o := &wardSend{
		n:       n,
		stats:   make([]*wireStats, w.streams),
		results: make([]netgw.StreamResult, w.streams),
		errs:    make([]error, w.streams),
		spans:   make([][]span, w.streams),
	}
	// Every send starts from a collected heap, so the collections that
	// fall inside it depend on its own allocation only. The schedule
	// starts shortly after launch so every sender is parked on its first
	// due time before it arrives.
	runtime.GC()
	m0 := mallocs()
	start := time.Now().Add(20 * time.Millisecond)
	addr := w.srv.Addr()
	var wg sync.WaitGroup
	for s := 0; s < w.streams; s++ {
		st := &wireStats{}
		if paced {
			st.sched = &schedule{start: start, rate: wardRate, streams: w.streams, stream: s}
		}
		if traced {
			st.rec = newRecorder(start)
		}
		o.stats[s] = st
		cfg := netgw.ClientConfig{
			Addr:       addr,
			StreamID:   idBase + uint64(s),
			JitterSeed: w.seed,
			Dial: func() (net.Conn, error) {
				c, err := net.DialTimeout("tcp", addr, 5*time.Second)
				if err != nil {
					return nil, err
				}
				return newWireConn(c, st), nil
			},
		}
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			id := st.rec.begin("netgw")
			o.results[s], o.errs[s] = netgw.SendRecord(cfg, w.frames[s])
			st.rec.end(id)
			if st.rec != nil {
				o.spans[s] = st.rec.spans
			}
		}(s)
	}
	wg.Wait()
	o.wall = time.Since(start)
	o.mallocs = mallocs() - m0
	return o
}

// rate returns the send's ECG seconds delivered per wall second.
func (w *wardSet) rate(o *wardSend) float64 {
	return float64(w.streams*o.n) * w.windowS() / o.wall.Seconds()
}

// phases runs each open-loop send followed by a closed-loop one. With
// traced set, every send is traced and each closed-loop send is
// followed by an identical traced one, so the two can be compared.
func (w *wardSet) phases(idBase uint64, traced bool) (open, closedU, closedT []*wardSend) {
	k := uint64(0)
	next := func() uint64 { k++; return idBase + k<<8 }
	for r := 0; r < wardRepeats; r++ {
		open = append(open, w.send(next(), true, traced))
		closedU = append(closedU, w.send(next(), false, false))
		if traced {
			closedT = append(closedT, w.send(next(), false, true))
		}
	}
	return open, closedU, closedT
}

// latencies returns every open-loop window's latency (ms) from its due
// time to the arrival of the ack that covered it, and how many windows
// no ack covered.
func latencies(sends []*wardSend) ([]float64, int) {
	var out []float64
	missing := 0
	for _, o := range sends {
		for _, st := range o.stats {
			st.mu.Lock()
			acked := attributeAcks(st.acks, o.n)
			st.mu.Unlock()
			for i, at := range acked {
				if at.IsZero() {
					missing++
					continue
				}
				out = append(out, ms(at.Sub(st.sched.due(i))))
			}
		}
	}
	return out, missing
}

// checkSend verifies every record of the sends against its stream's
// reference digest and counts their windows as attempted.
func (w *wardSet) checkSend(b *bench, phase string, sends []*wardSend, want []uint64) {
	for k, o := range sends {
		for s := range o.results {
			b.attempted += o.n
			if err := o.errs[s]; err != nil {
				b.failed += o.n
				fmt.Printf("ward %s send %d stream %d failed: %v\n", phase, k, s, err)
				continue
			}
			rep := o.results[s].Report
			b.check(rep.Digest == want[s], "ward %s send %d stream %d digest %016x, reference %016x", phase, k, s, rep.Digest, want[s])
			b.check(rep.Filled == 0, "ward %s send %d stream %d: %d zero-filled windows", phase, k, s, rep.Filled)
			b.check(rep.Delivered == o.n, "ward %s send %d stream %d delivered %d of %d windows", phase, k, s, rep.Delivered, o.n)
		}
	}
}

// wardRef is the in-process reference reconstruction of every record.
type wardRef struct {
	digests []uint64
	prd     float64
	tp, fn  int
}

// reference feeds each record's frames through link.Decode into a
// gateway.Receiver and fingerprints the signal with netgw.SignalDigest;
// it also scores the reconstruction against the regenerated record.
func (w *wardSet) reference() (*wardRef, error) {
	ref := &wardRef{digests: make([]uint64, w.streams)}
	prds := make([]float64, w.streams)
	tps := make([]int, w.streams)
	fns := make([]int, w.streams)
	errs := make([]error, w.streams)
	var wg sync.WaitGroup
	for s := 0; s < w.streams; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			rx, err := gateway.NewReceiver(w.gcfg)
			if err != nil {
				errs[s] = err
				return
			}
			for _, f := range w.frames[s] {
				p, err := link.Decode(f)
				if err == nil {
					err = rx.ConsumePacket(p.Measurements)
				}
				if err != nil {
					errs[s] = err
					return
				}
			}
			ref.digests[s] = netgw.SignalDigest(rx.Signal())
			rec := w.record(s)
			prds[s] = prd(rec.Leads, rx.Signal())
			beats, err := rx.Delineate()
			if err != nil {
				errs[s] = err
				return
			}
			ev := delineation.Evaluate(rec, beats, delineation.DefaultTolerances())
			tps[s], fns[s] = ev.R.TP, ev.R.FN
		}(s)
	}
	wg.Wait()
	for s := range errs {
		if errs[s] != nil {
			return nil, errs[s]
		}
		ref.prd += prds[s] / float64(w.streams)
		ref.tp += tps[s]
		ref.fn += fns[s]
	}
	return ref, nil
}

// prd is the percent RMS difference of a reconstruction against the
// original over their common length.
func prd(orig, recon [][]float64) float64 {
	var num, den float64
	for li := range orig {
		if li >= len(recon) {
			break
		}
		n := len(orig[li])
		if len(recon[li]) < n {
			n = len(recon[li])
		}
		for i := 0; i < n; i++ {
			d := orig[li][i] - recon[li][i]
			num += d * d
			den += orig[li][i] * orig[li][i]
		}
	}
	if den == 0 {
		return math.NaN()
	}
	return 100 * math.Sqrt(num/den)
}

// genLag summarises the open-loop generator's lateness and checks it
// against wardLagShare of the per-stream send period.
func (w *wardSet) genLag(b *bench, sends []*wardSend) float64 {
	var lags []float64
	backlogged := 0
	for _, o := range sends {
		for _, st := range o.stats {
			lags = append(lags, st.lags...)
			backlogged += st.backlogged
		}
	}
	p99 := 0.0
	if len(lags) > 0 {
		p99 = percentile(lags, 99)
	}
	period := float64(w.streams) / wardRate * 1000
	fmt.Printf("ward generator: lag p99 %.3f ms over %d on-time frames (limit %.2f ms = %.0f%% of the %.1f ms period), %d frames backlogged by the in-flight cap\n",
		p99, len(lags), wardLagShare*period, wardLagShare*100, period, backlogged)
	b.check(p99 <= wardLagShare*period, "ward run invalid: generator lag p99 %.3f ms exceeds %.2f ms", p99, wardLagShare*period)
	return p99
}

func runWard(b *bench) error {
	streams := runtime.GOMAXPROCS(0)
	recWin := int(math.Ceil(wardRate * wardOpenShare * b.seconds / float64(streams*wardRepeats)))
	w, setupS, err := timeSetup(setupReps, func() (*wardSet, error) {
		return buildWard(b.seed, streams, recWin)
	}, (*wardSet).close)
	if err != nil {
		return err
	}
	defer w.close()
	fmt.Printf("ward: %d streams, %d x (record of %d windows open loop at %.0f windows/s, then closed loop); setup %.3f s\n",
		streams, wardRepeats, recWin, wardRate, setupS)
	idBase := uint64(b.seed) << 32
	if b.traced {
		return tracedWard(b, w, idBase)
	}

	open, closed, _ := w.phases(idBase, false)
	heap := liveHeapMB()

	ref, err := w.reference()
	if err != nil {
		return err
	}
	w.checkSend(b, "open-loop", open, ref.digests)
	w.checkSend(b, "closed-loop", closed, ref.digests)
	w.genLag(b, open)
	lat, missing := latencies(open)
	l := latencyStats(b, "ward open-loop", lat, missing)
	var rates []float64
	for _, o := range closed {
		rates = append(rates, w.rate(o))
	}
	rtf := median(rates)
	fmt.Printf("ward closed loop: %d sends of %d windows, %.1f to %.1f ECG-s/s, median %.1f\n",
		len(closed), w.streams*w.recWin, percentile(rates, 0), percentile(rates, 100), rtf)

	b.set("setup_s", "s", setupS)
	b.set("rtf", "ecg_s/s", rtf)
	b.setLatency(l)
	b.set("beat_se_pct", "%", 100*float64(ref.tp)/float64(ref.tp+ref.fn))
	b.set("heap_mb", "MiB", heap)
	b.set("prd_pct", "%", ref.prd)
	return nil
}

// tracedWard measures ward's per-layer metrics: the link codec over
// every frame, the open loop over the wire and in an in-process engine
// twin on the same schedule, the closed loop untraced and traced, and
// the solver serially on every record.
func tracedWard(b *bench, w *wardSet, idBase uint64) error {
	// Link codec: decode every frame (the measurements the twin and the
	// serial solver pass consume) and re-encode it.
	meas := make([][][][]float64, w.streams)
	var decodeT, encodeT time.Duration
	bytes := 0
	for s := range w.frames {
		for _, f := range w.frames[s] {
			t0 := time.Now()
			p, err := link.Decode(f)
			t1 := time.Now()
			if err != nil {
				return err
			}
			g, err := link.Encode(p)
			t2 := time.Now()
			if err != nil {
				return err
			}
			decodeT += t1.Sub(t0)
			encodeT += t2.Sub(t1)
			b.check(string(g) == string(f), "link codec round trip changed a frame")
			bytes += len(f)
			meas[s] = append(meas[s], p.Measurements)
		}
	}
	nFrames := float64(w.streams * w.recWin)
	decodeMs := ms(decodeT) / nFrames
	b.set("link.codec_us_per_win", "us", 1000*(ms(decodeT)+ms(encodeT))/nFrames)
	b.set("link.wire_bytes_per_win", "count", float64(bytes)/nFrames)

	// Both phases over the wire, traced. Mallocs are counted over the
	// open-loop sends only.
	var wireAllocs uint64
	open, closedU, closedT := w.phases(idBase, true)
	for _, o := range open {
		wireAllocs += o.mallocs
	}
	nWin := float64(len(open) * w.streams * w.recWin)
	b.set("gen.lag_ms_p99", "ms", w.genLag(b, open))
	wardLat, missing := latencies(open)
	wl := latencyStats(b, "ward open-loop", wardLat, missing)
	frames := 0
	writeSelf := 0.0
	for _, o := range open {
		for s, st := range o.stats {
			frames += st.dataFrames
			t := layerTotal(o.spans[s], "netgw.write")
			writeSelf += ms(t)
		}
	}
	b.set("netgw.frames_per_win", "count", float64(frames)/nWin)

	// The same schedule through an in-process engine: no TCP.
	m0 := mallocs()
	twinLat, twinDigests, err := w.twin(meas)
	if err != nil {
		return err
	}
	twinAllocs := mallocs() - m0
	el := latencyStats(b, "engine twin", twinLat, 0)
	b.set("gateway.engine_ms_p50", "ms", el.p50)
	b.set("gateway.engine_ms_p99", "ms", el.p99)
	b.set("netgw.wire_ms_p50", "ms", wl.p50-el.p50)
	b.set("netgw.wire_ms_p99", "ms", wl.p99-el.p99)
	b.set("netgw.allocs_per_win", "count", (float64(wireAllocs)-float64(twinAllocs))/nWin)

	// The solver alone, serially, on every stream's record.
	dec, err := replicaDecoder(w.gcfg)
	if err != nil {
		return err
	}
	var decodes []float64
	iters := 0
	serialDigests := make([]uint64, w.streams)
	for s := range meas {
		ws := cs.NewWarmState()
		signal := make([][]float64, len(meas[s][0]))
		for i := 0; i < w.recWin; i++ {
			t0 := time.Now()
			xs, st, err := dec.ReconstructJointWarm(meas[s][i], ws)
			d := time.Since(t0)
			if err != nil {
				return err
			}
			decodes = append(decodes, ms(d))
			iters += st.Iters
			for li := range xs {
				signal[li] = append(signal[li], xs[li]...)
			}
		}
		serialDigests[s] = netgw.SignalDigest(signal)
	}
	meanDecode := mean(decodes)
	b.set("cs.decode_ms_p50", "ms", percentile(decodes, 50))
	b.set("cs.iters_per_win", "count", float64(iters)/float64(len(decodes)))

	// Each closed-loop send was followed by the same send traced: the
	// trace overhead.
	var untraced, traced []float64
	for i := range closedU {
		untraced = append(untraced, w.rate(closedU[i]))
		traced = append(traced, w.rate(closedT[i]))
	}
	b.set("bench.trace_overhead_pct", "%", overhead(median(untraced), median(traced)))

	ref, err := w.reference()
	if err != nil {
		return err
	}
	w.checkSend(b, "open-loop", open, ref.digests)
	w.checkSend(b, "closed-loop", closedU, ref.digests)
	w.checkSend(b, "closed-loop traced", closedT, ref.digests)
	for s := range serialDigests {
		b.check(serialDigests[s] == ref.digests[s], "serial solver stream %d digest %016x, reference %016x", s, serialDigests[s], ref.digests[s])
	}
	for s := range twinDigests {
		for r, d := range twinDigests[s] {
			b.check(d == ref.digests[s], "engine twin stream %d record %d digest %016x, reference %016x", s, r, d, ref.digests[s])
		}
	}
	b.set("prd_pct", "%", ref.prd)

	// Accounting of the mean open-loop window latency: the solver, the
	// engine's queueing around it (twin minus solver), the server-side
	// link decode, and the client's framing writes. What no span covers
	// — server-side sessions, acks and loopback TCP — is unattributed.
	twinMean := mean(twinLat)
	printAccounting(b, "ward, mean open-loop window latency", "ms per window", mean(wardLat), []layerRow{
		{"cs", meanDecode},
		{"gateway", twinMean - meanDecode},
		{"link", decodeMs},
		{"netgw", writeSelf / nWin},
	})
	return nil
}

// twin replays the open-loop records through an in-process engine
// configured like the server's: for each record, every stream submits
// each window when due, with a warm state per record (as the server
// keeps one per session), and waits for the result. It returns every
// window's latency from its due time and each record's digest.
func (w *wardSet) twin(meas [][][][]float64) ([]float64, [][]uint64, error) {
	eng, err := gateway.NewEngine(w.gcfg, gateway.EngineConfig{})
	if err != nil {
		return nil, nil, err
	}
	defer eng.Close()
	lat := make([][]float64, w.streams)
	digests := make([][]uint64, w.streams)
	errs := make([]error, w.streams)
	for r := 0; r < wardRepeats; r++ {
		runtime.GC()
		start := time.Now().Add(20 * time.Millisecond)
		var wg sync.WaitGroup
		for s := 0; s < w.streams; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				sched := &schedule{start: start, rate: wardRate, streams: w.streams, stream: s}
				ws := cs.NewWarmState()
				signal := make([][]float64, len(meas[s][0]))
				for i := 0; i < w.recWin; i++ {
					due := sched.due(i)
					time.Sleep(time.Until(due))
					j, err := eng.SubmitWarm(meas[s][i], ws)
					if err != nil {
						errs[s] = err
						return
					}
					xs, err := j.Wait()
					if err != nil {
						errs[s] = err
						return
					}
					lat[s] = append(lat[s], ms(time.Since(due)))
					for li := range xs {
						signal[li] = append(signal[li], xs[li]...)
					}
				}
				digests[s] = append(digests[s], netgw.SignalDigest(signal))
			}(s)
		}
		wg.Wait()
	}
	var all []float64
	for s := range lat {
		if errs[s] != nil {
			return nil, nil, errs[s]
		}
		all = append(all, lat[s]...)
	}
	return all, digests, nil
}

// replicaDecoder builds a cs.Decoder exactly as gateway.Receiver does:
// the sensing matrix regenerated from the shared seed and the
// receiver's solver defaults (150 iterations, one reweighting pass).
func replicaDecoder(g gateway.Config) (*cs.Decoder, error) {
	m := cs.MeasurementsForCR(g.CSWindow, g.CSRatio)
	d := g.CSDensity
	if d > m {
		d = m
	}
	phi, err := cs.NewSparseBinary(m, g.CSWindow, d, rand.New(rand.NewSource(g.Seed)))
	if err != nil {
		return nil, err
	}
	solver := g.Solver
	if solver.Iters <= 0 {
		solver.Iters = 150
	}
	if solver.Reweights == 0 {
		solver.Reweights = 1
	}
	return cs.NewDecoder(phi, solver)
}

// mean returns the arithmetic mean of xs, NaN when empty.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
