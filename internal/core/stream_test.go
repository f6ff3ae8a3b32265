package core

import (
	"reflect"
	"slices"
	"testing"

	"wbsn/internal/ecg"
)

func TestStreamValidation(t *testing.T) {
	node, _ := NewNode(Config{Mode: ModeRawStreaming})
	s, err := node.NewStream()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Push([]float64{1}); err != ErrStream {
		t.Error("wrong lead count should fail")
	}
	if _, err := s.PushBlock([][]float64{{1}, {1}}); err != ErrStream {
		t.Error("wrong block lead count should fail")
	}
	if _, err := s.PushBlock([][]float64{{1, 2}, {1}, {1, 2}}); err != ErrStream {
		t.Error("ragged block should fail")
	}
}

func TestStreamRawPacketisation(t *testing.T) {
	node, _ := NewNode(Config{Mode: ModeRawStreaming})
	s, _ := node.NewStream()
	rec := ecg.Generate(ecg.Config{Seed: 1, Duration: 10})
	events := feed(t, s, rec.Leads, 100)
	if len(events) == 0 {
		t.Fatal("no packets emitted")
	}
	total := 0
	for _, e := range events {
		if e.Kind != EventPacket {
			t.Fatal("raw stream should only emit packets")
		}
		total += e.Bytes
	}
	// Whole-record processing gives the same byte count.
	res, err := node.Process(rec)
	if err != nil {
		t.Fatal(err)
	}
	if diff := total - res.TxBytes; diff < -100 || diff > 100 {
		t.Errorf("streamed bytes %d vs batch %d", total, res.TxBytes)
	}
}

func TestStreamCSPacketisation(t *testing.T) {
	node, _ := NewNode(Config{Mode: ModeCS})
	s, _ := node.NewStream()
	rec := ecg.Generate(ecg.Config{Seed: 2, Duration: 10})
	events := feed(t, s, rec.Leads, 257)
	wantWindows := rec.Len() / node.Config().CSWindow
	if len(events) != wantWindows {
		t.Errorf("got %d CS packets, want %d", len(events), wantWindows)
	}
	for _, e := range events {
		if e.Bytes <= 0 {
			t.Error("empty CS packet")
		}
	}
}

func TestStreamBeatsMatchBatch(t *testing.T) {
	node, _ := NewNode(Config{Mode: ModeDelineation})
	s, _ := node.NewStream()
	rec := ecg.Generate(ecg.Config{Seed: 3, Duration: 30})
	events := feed(t, s, rec.Leads, 64)
	var streamed []int
	for _, e := range events {
		if e.Kind != EventBeat {
			continue
		}
		streamed = append(streamed, e.At)
	}
	res, err := node.Process(rec)
	if err != nil {
		t.Fatal(err)
	}
	// Every batch beat must be matched by a streamed beat within 3
	// samples; no large surplus.
	matched := 0
	for _, b := range res.Beats {
		for _, r := range streamed {
			d := r - b.Fiducials.R
			if d < 0 {
				d = -d
			}
			if d <= 3 {
				matched++
				break
			}
		}
	}
	if matched < len(res.Beats)-1 {
		t.Errorf("streamed beats matched %d/%d batch beats", matched, len(res.Beats))
	}
	if len(streamed) > len(res.Beats)+2 {
		t.Errorf("streamed %d beats vs batch %d (duplicates?)", len(streamed), len(res.Beats))
	}
	// Events are time-ordered and strictly increasing.
	for i := 1; i < len(streamed); i++ {
		if streamed[i] <= streamed[i-1] {
			t.Error("streamed beats out of order")
		}
	}
}

// TestProcessMatchesStream pins Process to the stream it drives: in
// every mode, a stream fed at any block size emits events whose
// aggregate equals Process's result exactly.
func TestProcessMatchesStream(t *testing.T) {
	// 31.3 s: not a multiple of the CS window or the analysis hop, so
	// every mode ends on a partial trailing chunk.
	rec := ecg.Generate(ecg.Config{Seed: 3, Duration: 31.3, Noise: ecg.NoiseConfig{EMG: 0.015}})
	afRec := ecg.Generate(ecg.Config{Seed: 4, Duration: 60, Rhythm: ecg.RhythmConfig{Kind: ecg.RhythmAF}})
	corrupted := *rec
	corrupted.Leads = corruptLeads(rec.Leads)
	cls, err := TrainClassifier([]*ecg.Record{ecg.Generate(ecg.Config{Seed: 43, Duration: 20})}, 256, 11)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		cfg  Config
		rec  *ecg.Record
	}{
		{"raw", Config{Mode: ModeRawStreaming}, rec},
		{"cs", Config{Mode: ModeCS}, rec},
		{"delineation", Config{Mode: ModeDelineation}, rec},
		{"classification", Config{Mode: ModeClassification, Classifier: cls}, rec},
		{"af-alarm", Config{Mode: ModeAFAlarm}, afRec},
		{"delineation-gated", Config{Mode: ModeDelineation, GateLeads: true}, &corrupted},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			node, err := NewNode(c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			want, err := node.Process(c.rec)
			if err != nil {
				t.Fatal(err)
			}
			if want.TxBytes == 0 {
				t.Fatal("Process transmitted nothing")
			}
			if c.cfg.Mode < ModeDelineation && (want.Beats != nil || want.AFDecisions != nil) {
				t.Fatal("packet modes should emit only packets")
			}
			for i := 1; i < len(want.Beats); i++ {
				if want.Beats[i].Fiducials.R <= want.Beats[i-1].Fiducials.R {
					t.Fatal("beats out of order")
				}
			}
			for _, block := range []int{1, 64, 257, 256} {
				s, err := node.NewStream()
				if err != nil {
					t.Fatal(err)
				}
				got := Result{}
				for _, ev := range feed(t, s, c.rec.Leads, block) {
					switch ev.Kind {
					case EventPacket:
						got.TxBytes += ev.Bytes
					case EventBeat:
						got.Beats = append(got.Beats, ev.Beat)
					case EventAF:
						got.AFDecisions = append(got.AFDecisions, ev.AF)
					}
				}
				switch c.cfg.Mode {
				case ModeDelineation:
					got.TxBytes = 20 * len(got.Beats)
				case ModeClassification:
					got.TxBytes = 4 * len(got.Beats)
				case ModeAFAlarm:
					got.TxBytes = len(got.AFDecisions)
				}
				got.LeadsUsed = s.used
				if !slices.Contains(s.used, true) { // no gate stage
					got.LeadsUsed = []bool{true, true, true}
				}
				for _, f := range []struct {
					name      string
					got, want any
				}{
					{"Beats", got.Beats, want.Beats},
					{"TxBytes", got.TxBytes, want.TxBytes},
					{"AFDecisions", got.AFDecisions, want.AFDecisions},
					{"LeadsUsed", got.LeadsUsed, want.LeadsUsed},
				} {
					if !reflect.DeepEqual(f.got, f.want) {
						t.Errorf("block %d: streamed %s %v, Process %v", block, f.name, f.got, f.want)
					}
				}
			}
		})
	}
}

func TestStreamAFEvents(t *testing.T) {
	node, _ := NewNode(Config{Mode: ModeAFAlarm})
	s, _ := node.NewStream()
	rec := ecg.Generate(ecg.Config{Seed: 4, Duration: 90, Rhythm: ecg.RhythmConfig{Kind: ecg.RhythmAF}})
	events := feed(t, s, rec.Leads, 128)
	afEvents := 0
	afPositive := 0
	for _, e := range events {
		if e.Kind == EventAF {
			afEvents++
			if e.AF.AF {
				afPositive++
			}
		}
	}
	if afEvents == 0 {
		t.Fatal("no AF decisions emitted")
	}
	if afPositive < afEvents/2 {
		t.Errorf("only %d/%d streamed windows voted AF on an AF record", afPositive, afEvents)
	}
}

func TestStreamSampleBySample(t *testing.T) {
	// Push one sample at a time: identical behaviour, just slower.
	node, _ := NewNode(Config{Mode: ModeCS})
	s, _ := node.NewStream()
	rec := ecg.Generate(ecg.Config{Seed: 5, Duration: 4})
	var packets int
	for i := 0; i < rec.Len(); i++ {
		sample := make([]float64, len(rec.Leads))
		for li := range sample {
			sample[li] = rec.Leads[li][i]
		}
		evs, err := s.Push(sample)
		if err != nil {
			t.Fatal(err)
		}
		packets += len(evs)
	}
	if want := rec.Len() / node.Config().CSWindow; packets != want {
		t.Errorf("sample-by-sample emitted %d packets, want %d", packets, want)
	}
}

func TestStreamQuantizedCS(t *testing.T) {
	rec := ecg.Generate(ecg.Config{Seed: 6, Duration: 8})
	run := func(bits int) (bytes int, meas [][]float64) {
		node, _ := NewNode(Config{Mode: ModeCS, QuantBits: bits, Seed: 3})
		s, _ := node.NewStream()
		chunk := make([][]float64, len(rec.Leads))
		for li := range chunk {
			chunk[li] = rec.Clean[li]
		}
		events, err := s.PushBlock(chunk)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range events {
			bytes += e.Bytes
			meas = e.Measurements
		}
		return bytes, meas
	}
	bFull, mFull := run(0)
	bQ8, mQ8 := run(8)
	// 8-bit payload is two thirds of the 12-bit payload.
	if bQ8 >= bFull {
		t.Errorf("8-bit payload %d not smaller than 12-bit %d", bQ8, bFull)
	}
	// Quantisation changes measurement values but only slightly.
	var maxRel float64
	for li := range mFull {
		scale := 0.0
		for _, v := range mFull[li] {
			if a := v; a < 0 {
				v = -v
			}
			if v > scale {
				scale = v
			}
		}
		for i := range mFull[li] {
			d := mQ8[li][i] - mFull[li][i]
			if d < 0 {
				d = -d
			}
			if rel := d / scale; rel > maxRel {
				maxRel = rel
			}
		}
	}
	if maxRel == 0 {
		t.Error("quantisation had no effect on the measurements")
	}
	if maxRel > 0.01 {
		t.Errorf("8-bit quantisation error %.4f of full scale, want < 1%%", maxRel)
	}
}
