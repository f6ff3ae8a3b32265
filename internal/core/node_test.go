package core

import (
	"errors"
	"reflect"
	"testing"

	"wbsn/internal/ecg"
)

func testRecord(seed int64, dur float64) *ecg.Record {
	return ecg.Generate(ecg.Config{Seed: seed, Duration: dur, Noise: ecg.NoiseConfig{EMG: 0.015}})
}

func TestNewNodeValidation(t *testing.T) {
	if _, err := NewNode(Config{Mode: Mode(99)}); err != ErrConfig {
		t.Error("unknown mode should fail")
	}
	if _, err := NewNode(Config{Mode: ModeClassification}); err != ErrNoClassifier {
		t.Error("classification without classifier should fail")
	}
	n, err := NewNode(Config{Mode: ModeCS})
	if err != nil {
		t.Fatal(err)
	}
	if n.Config().Fs != 256 || n.Config().CSRatio != 65.9 {
		t.Error("defaults not applied")
	}
}

func TestModeString(t *testing.T) {
	want := map[Mode]string{
		ModeRawStreaming:   "raw-streaming",
		ModeCS:             "compressed-sensing",
		ModeDelineation:    "delineation",
		ModeClassification: "classification",
		ModeAFAlarm:        "af-alarm",
		Mode(42):           "unknown",
	}
	for m, s := range want {
		if m.String() != s {
			t.Errorf("Mode(%d).String() = %q, want %q", m, m.String(), s)
		}
	}
}

func TestRawStreamingBandwidth(t *testing.T) {
	rec := testRecord(1, 30)
	n, _ := NewNode(Config{Mode: ModeRawStreaming})
	res, err := n.Process(rec)
	if err != nil {
		t.Fatal(err)
	}
	// 3 leads × 256 Hz × 12 bits = 1152 B/s.
	if res.TxBytesPerSecond < 1100 || res.TxBytesPerSecond > 1200 {
		t.Errorf("raw bandwidth %.0f B/s, want ~1152", res.TxBytesPerSecond)
	}
	if res.Energy.RadioJ <= 0 || res.Energy.SampleJ <= 0 {
		t.Error("energy shares missing")
	}
	if res.Energy.CompJ != 0 {
		t.Error("raw streaming should not charge compression energy")
	}
}

func TestCSReducesBandwidth(t *testing.T) {
	rec := testRecord(2, 30)
	raw, _ := NewNode(Config{Mode: ModeRawStreaming})
	csn, _ := NewNode(Config{Mode: ModeCS})
	rr, err := raw.Process(rec)
	if err != nil {
		t.Fatal(err)
	}
	rc, err := csn.Process(rec)
	if err != nil {
		t.Fatal(err)
	}
	ratio := rc.TxBytesPerSecond / rr.TxBytesPerSecond
	// CR 65.9% -> ~34% of the raw bytes (windowing quantisation aside).
	if ratio < 0.25 || ratio > 0.45 {
		t.Errorf("CS bandwidth ratio %.3f, want ~0.34", ratio)
	}
	if rc.Energy.CompJ <= 0 {
		t.Error("CS must charge compression energy")
	}
	if rc.Energy.TotalJ() >= rr.Energy.TotalJ() {
		t.Error("CS should reduce total node energy (Figure 6)")
	}
}

func TestDelineationModeEmitsBeats(t *testing.T) {
	rec := testRecord(3, 30)
	n, _ := NewNode(Config{Mode: ModeDelineation})
	res, err := n.Process(rec)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Beats) < len(rec.Beats)-2 || len(res.Beats) > len(rec.Beats)+2 {
		t.Errorf("delineated %d beats, truth %d", len(res.Beats), len(rec.Beats))
	}
	// 20 bytes per beat at ~1.2 beats/s: tens of bytes per second.
	if res.TxBytesPerSecond > 60 {
		t.Errorf("delineation bandwidth %.1f B/s too high", res.TxBytesPerSecond)
	}
	for _, b := range res.Beats {
		if b.Label != -1 {
			t.Error("delineation mode should not label beats")
		}
	}
}

func TestClassificationMode(t *testing.T) {
	train := ecg.GenerateSet(ecg.Config{
		Duration: 90,
		Rhythm:   ecg.RhythmConfig{PVCRate: 0.1, APBRate: 0.05},
	}, 800, 3)
	cl, err := TrainClassifier(train, 256, 5)
	if err != nil {
		t.Fatal(err)
	}
	rec := ecg.Generate(ecg.Config{Seed: 900, Duration: 60, Rhythm: ecg.RhythmConfig{PVCRate: 0.1}})
	n, err := NewNode(Config{Mode: ModeClassification, Classifier: cl})
	if err != nil {
		t.Fatal(err)
	}
	res, err := n.Process(rec)
	if err != nil {
		t.Fatal(err)
	}
	labelled := 0
	correctV := 0
	totalV := 0
	for i, b := range res.Beats {
		if b.Label >= 0 {
			labelled++
		}
		_ = i
	}
	if labelled < len(res.Beats)*8/10 {
		t.Errorf("only %d/%d beats labelled", labelled, len(res.Beats))
	}
	// Align detected beats to truth by nearest R and check PVC recall.
	for _, tb := range rec.Beats {
		if tb.Label != ecg.LabelPVC {
			continue
		}
		totalV++
		for _, db := range res.Beats {
			d := db.Fiducials.R - tb.Fid.RPeak
			if d < 0 {
				d = -d
			}
			if d <= 10 && db.Label == int(ecg.LabelPVC) {
				correctV++
				break
			}
		}
	}
	if totalV > 0 && float64(correctV)/float64(totalV) < 0.7 {
		t.Errorf("node-level PVC recall %d/%d", correctV, totalV)
	}
}

func TestAFAlarmMode(t *testing.T) {
	n, err := NewNode(Config{Mode: ModeAFAlarm})
	if err != nil {
		t.Fatal(err)
	}
	nsr := testRecord(4, 60)
	resN, err := n.Process(nsr)
	if err != nil {
		t.Fatal(err)
	}
	if resN.AFAlarm {
		t.Error("NSR record raised an AF alarm")
	}
	afRec := ecg.Generate(ecg.Config{Seed: 5, Duration: 60, Rhythm: ecg.RhythmConfig{Kind: ecg.RhythmAF}})
	resA, err := n.Process(afRec)
	if err != nil {
		t.Fatal(err)
	}
	if !resA.AFAlarm {
		t.Error("AF record did not raise an alarm")
	}
	if len(resA.AFDecisions) == 0 {
		t.Error("no AF decisions recorded")
	}
	// Alarm mode transmits almost nothing.
	if resA.TxBytesPerSecond > 5 {
		t.Errorf("AF-alarm bandwidth %.2f B/s", resA.TxBytesPerSecond)
	}
}

func TestProcessRejectsCorruptRecord(t *testing.T) {
	n, _ := NewNode(Config{Mode: ModeRawStreaming})
	bad := &ecg.Record{}
	if _, err := n.Process(bad); err == nil {
		t.Error("empty record should fail validation")
	}
	twoLeads := testRecord(1, 4)
	twoLeads.Leads = twoLeads.Leads[:2]
	twoLeads.Clean = nil
	if _, err := n.Process(twoLeads); !errors.Is(err, ErrStream) {
		t.Errorf("record with 2 leads on a 3-lead node: err %v, want ErrStream", err)
	}
}

// TestProcessHonoursQuantBits pins the CS payload Process prices to the
// quantised packets the stream emits.
func TestProcessHonoursQuantBits(t *testing.T) {
	rec := testRecord(6, 8)
	n, err := NewNode(Config{Mode: ModeCS, QuantBits: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	s, err := n.NewStream()
	if err != nil {
		t.Fatal(err)
	}
	streamed := 0
	for _, ev := range feed(t, s, rec.Leads, 256) {
		streamed += ev.Bytes
	}
	res, err := n.Process(rec)
	if err != nil {
		t.Fatal(err)
	}
	if res.TxBytes != streamed {
		t.Errorf("Process TxBytes %d, streamed 8-bit packets %d", res.TxBytes, streamed)
	}
}

// TestProcessLeadsUsedWithoutGating: with gating off every lead is used,
// in every mode.
func TestProcessLeadsUsedWithoutGating(t *testing.T) {
	rec := testRecord(8, 10)
	cls, err := TrainClassifier([]*ecg.Record{rec}, 256, 11)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []Mode{ModeRawStreaming, ModeCS, ModeDelineation, ModeClassification, ModeAFAlarm} {
		n, err := NewNode(Config{Mode: m, Classifier: cls})
		if err != nil {
			t.Fatal(err)
		}
		res, err := n.Process(rec)
		if err != nil {
			t.Fatal(err)
		}
		if want := []bool{true, true, true}; !reflect.DeepEqual(res.LeadsUsed, want) {
			t.Errorf("%s: LeadsUsed %v, want %v", m, res.LeadsUsed, want)
		}
	}
}

func TestLadderMonotonicity(t *testing.T) {
	// The Figure 1 claim: bandwidth and power fall as abstraction rises.
	rec := ecg.Generate(ecg.Config{Seed: 7, Duration: 60, Rhythm: ecg.RhythmConfig{PVCRate: 0.05}})
	rungs, err := Ladder(rec, 11)
	if err != nil {
		t.Fatal(err)
	}
	if len(rungs) != 5 {
		t.Fatalf("ladder has %d rungs", len(rungs))
	}
	for i := 1; i < len(rungs); i++ {
		if rungs[i].TxBytesPerSecond >= rungs[i-1].TxBytesPerSecond {
			t.Errorf("bandwidth did not fall from %s (%.1f) to %s (%.1f)",
				rungs[i-1].Mode, rungs[i-1].TxBytesPerSecond,
				rungs[i].Mode, rungs[i].TxBytesPerSecond)
		}
	}
	// Battery lifetime grows up the ladder; the top rungs must beat a
	// week (the SmartCardia claim).
	if rungs[0].BatteryLifetimeH >= rungs[len(rungs)-1].BatteryLifetimeH {
		t.Error("battery lifetime should grow with abstraction")
	}
	if rungs[2].BatteryLifetimeH < 7*24 {
		t.Errorf("delineation-mode lifetime %.0f h, want >= one week", rungs[2].BatteryLifetimeH)
	}
}
