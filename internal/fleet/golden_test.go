//go:build amd64

// The recorded digest holds on amd64 at every GOAMD64 level. There
// the Go 1.24 compiler fuses only an explicit math.FMA, which the
// decode path never calls, so even a GOAMD64=v3 build of cs, fleet,
// gateway and wavelet has no VFMADD; the assembly DWT tile interiors
// use none either. Where the compiler contracts x*y+z into one (arm64,
// ppc64, s390x) the solver's bits legitimately differ.

package fleet

import "testing"

// TestClusterGoldenDigest pins a small warm-carrying multi-round
// cluster's digest fold to a recorded value. Cluster-vs-flat and
// topology comparisons are relative; this one is absolute, so a decode
// drift shared by every path still fails it.
func TestClusterGoldenDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("CS reconstruction sweep")
	}
	const want = 0x83a5dfa1e06a91c6
	cfg := clusterCfg(3)
	cfg.Rounds = 2
	cfg.CarryWarm = true
	cl, rep := runCluster(t, cfg)
	defer cl.Close()
	if rep.DigestFold != want {
		t.Errorf("digest fold %#016x, recorded %#016x", rep.DigestFold, uint64(want))
	}
}
