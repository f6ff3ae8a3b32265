package fleet

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"reflect"
	"testing"

	"wbsn/internal/core"
)

// smallWarmCfg is a one-patient, short-window warm-carrying cluster small
// enough to checkpoint inside a unit test or a fuzz seed.
func smallWarmCfg() ClusterConfig {
	return ClusterConfig{
		Fleet: Config{
			Patients:    1,
			DurationS:   2,
			Seed:        100,
			SolverIters: 10,
			SolverTol:   1e-3,
			WarmStart:   true,
			Node:        core.Config{Mode: core.ModeCS, CSRatio: 60, CSWindow: 64, Seed: 100},
		},
		Groups:      1,
		GroupShards: 1,
		SessionS:    2,
		CarryWarm:   true,
	}
}

// warmCheckpoint runs one round of a small warm cluster and returns the
// still-open cluster with its checkpoint bytes. At least one warm slot
// is valid.
func warmCheckpoint(t testing.TB) (*Cluster, []byte) {
	t.Helper()
	cl, err := NewCluster(smallWarmCfg())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	if _, err := cl.RunRound(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := cl.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	anyValid := false
	for _, v := range cl.warm.valid {
		anyValid = anyValid || v == 1
	}
	if !anyValid {
		t.Fatal("no warm slot committed after one round")
	}
	return cl, buf.Bytes()
}

// refooter recomputes the FNV-1a footer over everything before it, as
// anyone crafting a checkpoint can.
func refooter(ckpt []byte) {
	body := ckpt[:len(ckpt)-8]
	h := newFNV64a(fnvOffset64)
	h.Write(body)
	binary.LittleEndian.PutUint64(ckpt[len(body):], h.Sum64())
}

// clusterSnapshot copies the state ReadCheckpoint may replace.
type clusterSnapshot struct {
	states []PatientState
	warm   *warmStore
	data   []float32
	valid  []uint8
	rounds int
}

func snapshotCluster(cl *Cluster) clusterSnapshot {
	return clusterSnapshot{
		states: append([]PatientState(nil), cl.states...),
		warm:   cl.warm,
		data:   append([]float32(nil), cl.warm.data...),
		valid:  append([]uint8(nil), cl.warm.valid...),
		rounds: cl.rounds,
	}
}

// TestReadCheckpointRejectsPoisonedWarmTier crafts checkpoints whose
// footer is correct but whose warm tier would seed the solver with
// garbage: a NaN or ±Inf in a valid slot, or a valid byte that is
// neither 0 nor 1. Each must be refused with ErrCheckpoint and leave
// the receiving cluster exactly as it was.
func TestReadCheckpointRejectsPoisonedWarmTier(t *testing.T) {
	cl, ckpt := warmCheckpoint(t)
	stride := 1 + 4*len(cl.warm.slot(0))
	warmOff := ckptHeaderLen + len(cl.states)*patientStateBytes
	p := 0
	for cl.warm.valid[p] != 1 {
		p++
	}
	slot := warmOff + p*stride

	cases := []struct {
		name   string
		poison func(b []byte)
	}{
		{"nan", func(b []byte) {
			binary.LittleEndian.PutUint32(b[slot+1+4*5:], math.Float32bits(float32(math.NaN())))
		}},
		{"+inf", func(b []byte) {
			binary.LittleEndian.PutUint32(b[slot+1:], math.Float32bits(float32(math.Inf(1))))
		}},
		{"-inf", func(b []byte) {
			binary.LittleEndian.PutUint32(b[slot+stride-4:], math.Float32bits(float32(math.Inf(-1))))
		}},
		{"valid byte 2", func(b []byte) { b[slot] = 2 }},
	}
	for _, tc := range cases {
		bad := append([]byte(nil), ckpt...)
		tc.poison(bad)
		refooter(bad)
		before := snapshotCluster(cl)
		if err := cl.ReadCheckpoint(bytes.NewReader(bad)); !errors.Is(err, ErrCheckpoint) {
			t.Errorf("%s: err %v, want ErrCheckpoint", tc.name, err)
		}
		if after := snapshotCluster(cl); !reflect.DeepEqual(after, before) {
			t.Errorf("%s: rejected checkpoint changed the cluster", tc.name)
		}
	}

	// The untouched checkpoint still restores.
	if err := cl.ReadCheckpoint(bytes.NewReader(ckpt)); err != nil {
		t.Fatalf("clean checkpoint: %v", err)
	}
}

// FuzzReadCheckpoint feeds the reader arbitrary checkpoint bodies with
// a correct FNV footer appended, so mutations reach the field checks
// rather than stopping at the footer. Invariants: no panic, and the
// reader either returns ErrCheckpoint or restores a cluster whose warm
// valid bytes are 0 or 1 and whose valid warm slots are all finite.
func FuzzReadCheckpoint(f *testing.F) {
	cl, ckpt := warmCheckpoint(f)
	body := ckpt[:len(ckpt)-8]
	f.Add(body)
	f.Add(body[:ckptHeaderLen])
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, body []byte) {
		in := append(append([]byte(nil), body...), make([]byte, 8)...)
		refooter(in)
		err := cl.ReadCheckpoint(bytes.NewReader(in))
		if err != nil {
			if !errors.Is(err, ErrCheckpoint) {
				t.Fatalf("non-ErrCheckpoint error: %v", err)
			}
			return
		}
		for p, v := range cl.warm.valid {
			if v > 1 {
				t.Fatalf("patient %d: restored valid byte %d", p, v)
			}
			if v == 0 {
				continue
			}
			for i, x := range cl.warm.slot(p) {
				if f := float64(x); math.IsNaN(f) || math.IsInf(f, 0) {
					t.Fatalf("patient %d: restored non-finite warm coefficient %d (%v)", p, i, x)
				}
			}
		}
	})
}
