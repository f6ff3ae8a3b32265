package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"wbsn/internal/core"
	"wbsn/internal/delineation"
	"wbsn/internal/ecg"
)

// The holter workload: the on-node analysis modes over a fixed set of
// ambulatory records, each record through Stream.PushBlock in 1 s
// blocks (the firmware and fleet path) and through Node.Process (the
// paper-figure path). Passes run back to back (closed loop); nothing is
// reconstructed.
const (
	holterRecords = 16
	holterRecordS = 60
	holterTrainS  = 60
	holterTrain   = 2
	// holterCyclesPerS is the nominal pace the cycle count is derived
	// from: one cycle analyses every record once per mode and path.
	holterCyclesPerS = 1.6
	// holterFloor is the beat Se and PPV floor of the Node.Process beats
	// against ground truth.
	holterFloor = 0.95
)

// holterMode is one analysis mode under test.
type holterMode struct {
	name   string
	node   *core.Node
	stream *core.Stream
}

// holterSet is the prepared record set and the trained nodes.
type holterSet struct {
	recs  []*ecg.Record
	modes []*holterMode
}

func buildHolter(seed int64) (*holterSet, error) {
	h := &holterSet{}
	for i := 0; i < holterRecords; i++ {
		rhythm := ecg.RhythmConfig{}
		if i%2 == 1 {
			rhythm.Kind = ecg.RhythmAF
		}
		h.recs = append(h.recs, ecg.Generate(ecg.Config{
			Seed: seed*1000 + int64(i), Duration: holterRecordS,
			Rhythm: rhythm, Noise: ecg.AmbulatoryNoise(),
		}))
	}
	var train []*ecg.Record
	for i := 0; i < holterTrain; i++ {
		train = append(train, ecg.Generate(ecg.Config{
			Seed: seed*1000 + 500 + int64(i), Duration: holterTrainS,
			Rhythm: ecg.RhythmConfig{PVCRate: 0.08, APBRate: 0.05},
			Noise:  ecg.NoiseConfig{EMG: 0.015},
		}))
	}
	cl, err := core.TrainClassifier(train, h.recs[0].Fs, seed)
	if err != nil {
		return nil, err
	}
	for _, m := range []struct {
		name string
		cfg  core.Config
	}{
		{"delineation", core.Config{Mode: core.ModeDelineation}},
		{"classification", core.Config{Mode: core.ModeClassification, Classifier: cl}},
		{"af", core.Config{Mode: core.ModeAFAlarm}},
	} {
		node, err := core.NewNode(m.cfg)
		if err != nil {
			return nil, err
		}
		stream, err := node.NewStream()
		if err != nil {
			return nil, err
		}
		h.modes = append(h.modes, &holterMode{name: m.name, node: node, stream: stream})
	}
	return h, nil
}

// pushRecord streams one record through the mode's Stream in 1 s
// blocks.
func (m *holterMode) pushRecord(rec *ecg.Record, rc *recorder) error {
	id := rc.begin("core." + m.name + ".push")
	defer rc.end(id)
	m.stream.Reset()
	err := eachBlock(rec, func(block [][]float64) error {
		_, err := m.stream.PushBlock(block)
		return err
	})
	if err != nil {
		return err
	}
	_, err = m.stream.Flush()
	return err
}

// eachBlock calls f with the record's leads in consecutive 1 s blocks,
// the acquisition block of the firmware and fleet path. The block
// slices alias the record and are reused between calls.
func eachBlock(rec *ecg.Record, f func(block [][]float64) error) error {
	block := make([][]float64, len(rec.Leads))
	n := int(rec.Fs)
	for at := 0; at < rec.Len(); at += n {
		end := at + n
		if end > rec.Len() {
			end = rec.Len()
		}
		for li := range rec.Leads {
			block[li] = rec.Leads[li][at:end]
		}
		if err := f(block); err != nil {
			return err
		}
	}
	return nil
}

// process runs one record through Node.Process.
func (m *holterMode) process(rec *ecg.Record, rc *recorder) (*core.Result, error) {
	id := rc.begin("core." + m.name + ".process")
	defer rc.end(id)
	return m.node.Process(rec)
}

// holterPass is the outcome of running the record set for some cycles.
type holterPass struct {
	wall   time.Duration
	passes int
	ecgS   float64
	lat    []float64
	// rates holds each cycle's ECG seconds analysed per wall second.
	rates  []float64
	score  delineation.PointScore
	spans  []span
	allocs uint64
}

// run analyses every record in every mode through both paths, cycles
// times over. The first cycle scores the Node.Process beats.
func (h *holterSet) run(cycles int, traced bool) (*holterPass, error) {
	out := &holterPass{}
	var rc *recorder
	t0 := time.Now()
	if traced {
		rc = newRecorder(t0)
	}
	m0 := mallocs()
	for c := 0; c < cycles; c++ {
		tc, ecgS := time.Now(), out.ecgS
		for _, rec := range h.recs {
			for _, m := range h.modes {
				t := time.Now()
				if err := m.pushRecord(rec, rc); err != nil {
					return nil, err
				}
				t1 := time.Now()
				res, err := m.process(rec, rc)
				if err != nil {
					return nil, err
				}
				out.lat = append(out.lat, ms(t1.Sub(t)), ms(time.Since(t1)))
				out.passes += 2
				out.ecgS += 2 * rec.Duration()
				if c == 0 {
					beats := make([]delineation.BeatFiducials, len(res.Beats))
					for i, bo := range res.Beats {
						beats[i] = bo.Fiducials
					}
					ev := delineation.Evaluate(rec, beats, delineation.DefaultTolerances())
					out.score.TP += ev.R.TP
					out.score.FP += ev.R.FP
					out.score.FN += ev.R.FN
				}
			}
		}
		out.rates = append(out.rates, (out.ecgS-ecgS)/time.Since(tc).Seconds())
	}
	out.wall = time.Since(t0)
	out.allocs = mallocs() - m0
	if rc != nil {
		out.spans = rc.spans
	}
	return out, nil
}

// add accumulates another pass; score selects whether its beat score
// is kept (only a first cycle is scored).
func (p *holterPass) add(o *holterPass, score bool) {
	p.wall += o.wall
	p.passes += o.passes
	p.ecgS += o.ecgS
	p.lat = append(p.lat, o.lat...)
	p.rates = append(p.rates, o.rates...)
	if score {
		p.score = o.score
	}
	// Spans of separate passes share no parents; shift the parent links.
	base := len(p.spans)
	for _, sp := range o.spans {
		if sp.parent >= 0 {
			sp.parent += base
		}
		p.spans = append(p.spans, sp)
	}
	p.allocs += o.allocs
}

// check applies the beat Se/PPV floor.
func (p *holterPass) check(b *bench) {
	b.attempted += p.passes
	se, ppv := p.score.Se(), p.score.PPV()
	fmt.Printf("holter: %d passes, %.0f ECG-s analysed in %.3f s; Node.Process beats Se %.2f%% PPV %.2f%% (floor %.0f%%)\n",
		p.passes, p.ecgS, p.wall.Seconds(), 100*se, 100*ppv, 100*holterFloor)
	b.check(se >= holterFloor && ppv >= holterFloor, "holter beat Se %.4f / PPV %.4f below the %.2f floor", se, ppv, holterFloor)
}

func runHolter(b *bench) error {
	cycles := int(math.Round(b.seconds * holterCyclesPerS))
	if cycles < 2 {
		cycles = 2
	}
	h, setupS, err := timeSetup(setupReps, func() (*holterSet, error) { return buildHolter(b.seed) }, func(*holterSet) {})
	if err != nil {
		return err
	}
	fmt.Printf("holter: setup (records + classifier training + nodes) %.3f s; %d cycles over %d records x %d modes x 2 paths\n",
		setupS, cycles, holterRecords, len(h.modes))
	if b.traced {
		return tracedHolter(b, h, cycles)
	}
	p, err := h.run(cycles, false)
	if err != nil {
		return err
	}
	heap := liveHeapMB()
	runtime.KeepAlive(h)
	p.check(b)
	l := latencyStats(b, "holter record pass", p.lat, 0)
	b.set("setup_s", "s", setupS)
	b.set("rtf", "ecg_s/s", median(p.rates))
	b.setLatency(l)
	b.set("beat_se_pct", "%", 100*p.score.Se())
	b.set("heap_mb", "MiB", heap)
	return nil
}

// tracedHolter alternates untraced cycles with cycles that record a
// span around every node call, and reports per-mode, per-path cost.
func tracedHolter(b *bench, h *holterSet, cycles int) error {
	u, t := &holterPass{}, &holterPass{}
	for c := 0; c < cycles; c++ {
		p, err := h.run(1, c%2 == 1)
		if err != nil {
			return err
		}
		if c%2 == 0 {
			u.add(p, c == 0)
		} else {
			t.add(p, false)
		}
	}
	u.check(b)
	b.attempted += t.passes
	b.set("bench.trace_overhead_pct", "%", overhead(median(u.rates), median(t.rates)))
	samples := 0
	for _, rec := range h.recs {
		samples += rec.Len()
	}
	samples *= cycles / 2
	var rows []layerRow
	for _, m := range h.modes {
		for _, path := range []string{"push", "process"} {
			name := "core." + m.name + "." + path
			d := layerTotal(t.spans, name)
			b.set(name+"_ns_per_sample", "ns", float64(d.Nanoseconds())/float64(samples))
			rows = append(rows, layerRow{name, ms(d)})
		}
	}
	b.set("core.allocs_per_ecg_s", "count", float64(t.allocs)/t.ecgS)
	printAccounting(b, "holter, traced cycles' wall time", "ms", ms(t.wall), rows)
	return nil
}
