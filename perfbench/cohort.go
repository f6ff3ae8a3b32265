package main

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"wbsn/internal/core"
	"wbsn/internal/cs"
	"wbsn/internal/delineation"
	"wbsn/internal/ecg"
	"wbsn/internal/fleet"
	"wbsn/internal/gateway"
	"wbsn/internal/link"
)

// The cohort workload: a hierarchical fleet.Cluster configured like the
// soak (CS 60%, warm start carried across rounds, solver tolerance
// 1e-3, 2 s sessions, 8192 B/patient budget) over the bursty channel of
// `wbsn-sim -faulty`. Rounds run back to back (closed loop).
const (
	// cohortPatients sizes the population so one round takes about a
	// second on the 2-core reference host.
	cohortPatients = 200
	cohortSessionS = 2
	cohortBudget   = 8192
	// cohortRoundS is the nominal round time the round count is derived
	// from: --seconds/cohortRoundS measured rounds.
	cohortRoundS = 1.0
)

// cohortVerify is the fixed patient sample Cluster.VerifyPatient
// replays every run (first, middle, last).
var cohortVerify = []int{0, cohortPatients / 2, cohortPatients - 1}

// burstyChannel is the "bursty" preset of `wbsn-sim -faulty`.
func burstyChannel() link.ChannelConfig {
	return link.ChannelConfig{
		PGoodToBad: 0.08, PBadToGood: 0.25, LossGood: 0.01, LossBad: 0.4,
		BERBad: 1e-6, PReorder: 0.02,
	}
}

// cohortSet is one cluster plus the session-start probe. The probe is
// the Scenario hook, which the cluster consults as each patient-session
// starts; it returns the population defaults unchanged.
type cohortSet struct {
	cl     *fleet.Cluster
	starts []time.Time
	probe  atomic.Bool
	// round0 is the warm-up round run in setup: cold, with every
	// patient's seed Seed+p.
	round0 *fleet.RoundReport
	// states holds every patient's state after round 0.
	states []fleet.PatientState
}

func buildCohort(seed int64) (*cohortSet, error) {
	c := &cohortSet{starts: make([]time.Time, cohortPatients)}
	cl, err := fleet.NewCluster(fleet.ClusterConfig{
		Fleet: fleet.Config{
			Patients:  cohortPatients,
			Seed:      seed,
			Node:      core.Config{Mode: core.ModeCS, CSRatio: 60, Seed: seed},
			Channel:   burstyChannel(),
			SolverTol: 1e-3,
			WarmStart: true,
			Scenario: func(p int) fleet.Scenario {
				if c.probe.Load() {
					c.starts[p] = time.Now()
				}
				return fleet.Scenario{}
			},
		},
		SessionS:              cohortSessionS,
		CarryWarm:             true,
		BudgetBytesPerPatient: cohortBudget,
	})
	if err != nil {
		return nil, err
	}
	c.cl = cl
	if c.round0, err = cl.RunRound(); err != nil {
		cl.Close()
		return nil, err
	}
	c.states = make([]fleet.PatientState, cohortPatients)
	for p := range c.states {
		c.states[p] = cl.State(p)
	}
	return c, nil
}

func (c *cohortSet) close() { c.cl.Close() }

// round runs one scheduling round and appends each patient-session's
// service time (ms) to lat. A session ends when its worker starts the
// next: workers deal patients round-robin, so patient p's successor on
// its worker is p+GroupShards. Each worker's last session has no
// successor and is left out.
func (c *cohortSet) round(lat []float64) (*fleet.RoundReport, []float64, error) {
	c.probe.Store(true)
	rr, err := c.cl.RunRound()
	c.probe.Store(false)
	if err != nil {
		return nil, lat, err
	}
	gs := c.cl.Config().GroupShards
	for p := 0; p+gs < cohortPatients; p++ {
		lat = append(lat, ms(c.starts[p+gs].Sub(c.starts[p])))
	}
	return rr, lat, nil
}

// verify runs the cohort's correctness checks.
func (c *cohortSet) verify(b *bench, rounds int) *fleet.ClusterReport {
	rep := c.cl.Report()
	b.attempted += cohortPatients * rounds
	b.check(rep.Rounds == rounds+1, "cohort ran %d rounds, want %d", rep.Rounds, rounds+1)
	b.check(rep.Delivered+rep.Lost == rep.Packets, "cohort delivered %d + lost %d != packets %d", rep.Delivered, rep.Lost, rep.Packets)
	for _, p := range cohortVerify {
		err := c.cl.VerifyPatient(p)
		b.check(err == nil, "cohort VerifyPatient(%d): %v", p, err)
	}
	b.check(!math.IsNaN(rep.MeanSe), "cohort has no scorable beats")
	fmt.Printf("cohort: %d patients x %d rounds, packets %d delivered %d lost %d, Se %.2f%% PPV %.2f%%, verified patients %v\n",
		rep.Patients, rep.Rounds, rep.Packets, rep.Delivered, rep.Lost, 100*rep.MeanSe, 100*rep.MeanPPV, cohortVerify)
	return rep
}

func runCohort(b *bench) error {
	rounds := int(math.Round(b.seconds / cohortRoundS))
	if rounds < 2 {
		rounds = 2
	}
	var round0 []float64
	c, setupS, err := timeSetup(setupReps, func() (*cohortSet, error) {
		c, err := buildCohort(b.seed)
		if err == nil {
			round0 = append(round0, c.round0.WallSeconds)
		}
		return c, err
	}, (*cohortSet).close)
	if err != nil {
		return err
	}
	defer c.close()
	fmt.Printf("cohort: setup (cluster + warm-up round 0) %.3f s; %d measured rounds of %d patients x %g s\n",
		setupS, rounds, cohortPatients, float64(cohortSessionS))
	if b.traced {
		return tracedCohort(b, c, rounds, median(round0))
	}
	var lat, rates []float64
	for r := 0; r < rounds; r++ {
		var rr *fleet.RoundReport
		if rr, lat, err = c.round(lat); err != nil {
			return err
		}
		rates = append(rates, rr.RealTimeFactor)
	}
	heap := liveHeapMB()
	rep := c.verify(b, rounds)
	l := latencyStats(b, "cohort session", lat, 0)
	b.set("setup_s", "s", setupS)
	b.set("rtf", "ecg_s/s", median(rates))
	b.setLatency(l)
	b.set("beat_se_pct", "%", 100*rep.MeanSe)
	b.set("heap_mb", "MiB", heap)
	return nil
}

// tracedCohort measures cohort's per-layer metrics. Right after setup,
// one population is replayed through the public chain the fleet runs
// per session and compared with the median round 0 of setup (cold, the
// same seeds). Then the measured rounds alternate untraced and traced.
func tracedCohort(b *bench, c *cohortSet, rounds int, round0S float64) error {
	ch, err := replayChain(b, c, b.seed)
	if err != nil {
		return err
	}
	workers := float64(c.cl.Config().GroupShards)
	roundMs := 1000 * round0S * workers / cohortPatients
	per := func(d time.Duration) float64 { return ms(d) / cohortPatients }
	chainMs := per(ch.core)
	b.set("fleet.self_ms_per_patient", "ms", roundMs-chainMs)

	// Even rounds run untraced; odd rounds are also timed by the
	// benchmark around RunRound.
	var roundS, rateU, rateT []float64
	for r := 0; r < rounds; r++ {
		if r%2 == 0 {
			rr, _, err := c.round(nil)
			if err != nil {
				return err
			}
			rateU = append(rateU, rr.RealTimeFactor)
			continue
		}
		t0 := time.Now()
		rr, _, err := c.round(nil)
		if err != nil {
			return err
		}
		roundS = append(roundS, time.Since(t0).Seconds())
		rateT = append(rateT, rr.RealTimeFactor)
	}
	b.set("fleet.round_s", "s", median(roundS))
	b.set("bench.trace_overhead_pct", "%", overhead(median(rateU), median(rateT)))
	b.set("fleet.heap_bytes_per_patient", "count", liveHeapMB()*(1<<20)/cohortPatients)
	c.verify(b, rounds)

	// The fleet row is round 0's per-patient core time minus the chain;
	// the solver runs inside the gateway's ConsumePacket (on an engine
	// worker), so the gateway row is its self time minus the paired
	// solver time.
	printAccounting(b, "cohort, round 0 core time per patient", "ms per patient", roundMs, []layerRow{
		{"fleet", roundMs - chainMs},
		{"ecg", per(ch.self["ecg"])},
		{"core", per(ch.self["core"])},
		{"link", per(ch.self["link"])},
		{"gateway", per(ch.self["gateway"]) - per(ch.decode)},
		{"cs", per(ch.decode)},
	})
	return nil
}

// chainResult is what one replay of the population through the public
// chain measured.
type chainResult struct {
	// core is the replay's core time (each worker's wall time summed)
	// without the paired solver calls.
	core time.Duration
	// self is each layer's self time summed over workers; decode the
	// paired solver time.
	self   map[string]time.Duration
	decode time.Duration
}

// timedSink is the link's sink in the replay. It times the receiver's
// calls as gateway spans, and after every delivered window times the
// solver alone on the same measurements (a span of its own, paired in
// time with the gateway call it shadows). The solver's warm state
// follows the receiver's: reset per patient and on a lost window.
type timedSink struct {
	rx       *gateway.Receiver
	dec      *cs.Decoder
	ws       *cs.WarmState
	rec      *recorder
	consume  time.Duration
	consumed int
	decodes  []float64
	iters    int
}

func (t *timedSink) ConsumePacket(m [][]float64) error {
	id := t.rec.begin("gateway")
	t0 := time.Now()
	err := t.rx.ConsumePacket(m)
	t.consume += time.Since(t0)
	t.consumed++
	t.rec.end(id)
	if err != nil {
		return err
	}
	id = t.rec.begin("cs")
	t0 = time.Now()
	_, st, err := t.dec.ReconstructJointWarm(m, t.ws)
	t.decodes = append(t.decodes, ms(time.Since(t0)))
	t.rec.end(id)
	t.iters += st.Iters
	return err
}

func (t *timedSink) ConsumeLostPacket() {
	id := t.rec.begin("gateway")
	t.rx.ConsumeLostPacket()
	t.rec.end(id)
	t.ws.Reset()
}

// chainWorker is one replay worker's rig and tallies.
type chainWorker struct {
	stream                            *core.Stream
	sink                              *timedSink
	wall                              time.Duration
	attempts, packets, bytes, samples int
	err                               error
}

// replayChain replays round 0 of the population through the public
// chain one fleet session runs — ecg.Generate, Stream.PushBlock in 1 s
// blocks, Link.SendMeasurements over the bursty channel into a Receiver
// with an engine attached, Receiver.Delineate — on as many workers as
// the cluster has, dealing patients round-robin like the cluster. It
// checks every patient's counts against the cluster's round-0 state.
func replayChain(b *bench, c *cohortSet, seed int64) (*chainResult, error) {
	node, err := core.NewNode(core.Config{Mode: core.ModeCS, CSRatio: 60, Seed: seed})
	if err != nil {
		return nil, err
	}
	gcfg := gateway.MatchNode(node.Config())
	gcfg.Solver.Tol = 1e-3
	gcfg.WarmStart = true
	eng, err := gateway.NewEngine(gcfg, gateway.EngineConfig{})
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	dec, err := replicaDecoder(gcfg)
	if err != nil {
		return nil, err
	}
	nw := c.cl.Config().GroupShards
	workers := make([]*chainWorker, nw)
	for i := range workers {
		stream, err := node.NewStream()
		if err != nil {
			return nil, err
		}
		rx, err := gateway.NewReceiver(gcfg)
		if err != nil {
			return nil, err
		}
		if err := rx.AttachEngine(eng); err != nil {
			return nil, err
		}
		workers[i] = &chainWorker{stream: stream, sink: &timedSink{rx: rx, dec: dec.Clone(), ws: cs.NewWarmState()}}
	}
	// mismatch records, per patient, a disagreement with round 0; each
	// worker writes only its own patients' entries.
	mismatch := make([]string, cohortPatients)
	start := time.Now()
	var wg sync.WaitGroup
	for i, w := range workers {
		w.sink.rec = newRecorder(start)
		wg.Add(1)
		go func(i int, w *chainWorker) {
			defer wg.Done()
			for p := i; p < cohortPatients && w.err == nil; p += nw {
				mismatch[p], w.err = w.session(c.states[p], seed+int64(p))
			}
			w.wall = time.Since(start)
		}(i, w)
	}
	wg.Wait()
	res := &chainResult{self: map[string]time.Duration{}}
	var decodes []float64
	var attempts, packets, bytes, samples, consumed, iters int
	var consume, synth, push time.Duration
	for _, w := range workers {
		if w.err != nil {
			return nil, w.err
		}
		spans := w.sink.rec.spans
		d := layerTotal(spans, "cs")
		res.decode += d
		res.core += w.wall - d
		for l, t := range selfTimes(spans) {
			res.self[l] += t
		}
		t := layerTotal(spans, "ecg")
		synth += t
		t = layerTotal(spans, "core")
		push += t
		decodes = append(decodes, w.sink.decodes...)
		attempts += w.attempts
		packets += w.packets
		bytes += w.bytes
		samples += w.samples
		consume += w.sink.consume
		consumed += w.sink.consumed
		iters += w.sink.iters
	}
	for p, m := range mismatch {
		b.check(m == "", "cohort chain replay of patient %d disagrees with round 0: %s", p, m)
	}
	b.set("ecg.synth_ms_per_session", "ms", ms(synth)/cohortPatients)
	b.set("core.cs.push_ns_per_sample", "ns", float64(push.Nanoseconds())/float64(samples))
	b.set("link.arq_us_per_win", "us", 1000*ms(res.self["link"])/float64(packets))
	b.set("link.attempts_per_win", "count", float64(attempts)/float64(packets))
	b.set("link.wire_bytes_per_win", "count", float64(bytes)/float64(packets))
	b.set("gateway.consume_ms_per_win", "ms", ms(consume)/float64(consumed))
	b.set("cs.iters_per_win", "count", float64(iters)/float64(len(decodes)))
	b.set("cs.decode_ms_p50", "ms", percentile(decodes, 50))
	fmt.Printf("cohort chain replay: %d patients on %d workers, %d windows delivered of %d, %.3f core-s without the paired solver calls\n",
		cohortPatients, nw, consumed, packets, res.core.Seconds())
	return res, nil
}

// session replays one patient-session through the worker's rig and
// returns a description of any disagreement with the cluster's round-0
// state st.
func (w *chainWorker) session(st fleet.PatientState, pseed int64) (string, error) {
	rec, sink := w.sink.rec, w.sink
	id := rec.begin("ecg")
	r := ecg.Generate(ecg.Config{Seed: pseed, Duration: cohortSessionS})
	rec.end(id)
	w.stream.Reset()
	sink.rx.Reset()
	sink.ws.Reset()
	chCfg := burstyChannel()
	chCfg.Seed = pseed
	channel, err := link.NewChannel(chCfg)
	if err != nil {
		return "", err
	}
	lk, err := link.NewLink(link.ARQConfig{Seed: pseed}, channel, sink)
	if err != nil {
		return "", err
	}
	send := func(evs []core.Event) error {
		for _, ev := range evs {
			if ev.Kind != core.EventPacket || ev.Measurements == nil {
				continue
			}
			w.bytes += link.FrameBytes(len(ev.Measurements), len(ev.Measurements[0]))
			id := rec.begin("link")
			_, err := lk.SendMeasurements(ev.At, ev.Measurements)
			rec.end(id)
			if err != nil {
				return err
			}
		}
		return nil
	}
	err = eachBlock(r, func(block [][]float64) error {
		id := rec.begin("core")
		evs, err := w.stream.PushBlock(block)
		rec.end(id)
		if err != nil {
			return err
		}
		return send(evs)
	})
	if err != nil {
		return "", err
	}
	id = rec.begin("core")
	evs, err := w.stream.Flush()
	rec.end(id)
	if err != nil {
		return "", err
	}
	if err := send(evs); err != nil {
		return "", err
	}
	w.samples += r.Len()
	id = rec.begin("link")
	err = lk.Close()
	rec.end(id)
	if err != nil {
		return "", err
	}
	id = rec.begin("gateway")
	beats, err := sink.rx.Delineate()
	rec.end(id)
	if err != nil {
		return "", err
	}
	rep := lk.Report()
	w.attempts += rep.Attempts
	w.packets += rep.Packets
	ev := delineation.Evaluate(r, beats, delineation.DefaultTolerances())
	if int(st.Packets) != rep.Packets || int(st.Delivered) != rep.Delivered || int(st.Lost) != rep.Lost ||
		int(st.Beats) != len(beats) || int(st.TP) != ev.R.TP {
		return fmt.Sprintf("packets %d/%d delivered %d/%d lost %d/%d beats %d/%d TP %d/%d",
			rep.Packets, st.Packets, rep.Delivered, st.Delivered, rep.Lost, st.Lost, len(beats), st.Beats, ev.R.TP, st.TP), nil
	}
	return "", nil
}
