package cluster

import (
	"testing"

	"skv/internal/consistency"
)

// TestAckLossAsyncLosesAckedWrites pins the motivation for the consistency
// plane: with async (legacy) acknowledgments and a batched replication
// stream, a master crash destroys writes the cluster already acknowledged —
// the replies outran the replication. The probe must observe at least one
// lost acked write, or the quorum experiment has nothing to fix and the
// headline comparison is vacuous.
func TestAckLossAsyncLosesAckedWrites(t *testing.T) {
	t.Parallel()
	res, err := RunAckLossProbe(consistency.Async, 0, 7)
	if err != nil {
		t.Fatalf("probe harness failed: %v\ntrace:\n%s", err, res.H.TraceString())
	}
	if res.WritesAcked == 0 {
		t.Fatal("no writes acknowledged before the crash")
	}
	if len(res.Lost) == 0 {
		t.Fatalf("async lost no acked writes (%d acked): the batching window never opened, probe lost its bite\ntrace:\n%s",
			res.WritesAcked, res.H.TraceString())
	}
	t.Logf("async: %d acked, %d lost (first: %s)", res.WritesAcked, len(res.Lost), res.Lost[0])
}

// TestAckLossQuorumLosesNothing is the headline: same topology, same crash,
// same batching window — but quorum (W=2) writes are only acknowledged once
// two slaves hold them, and the NIC promotes the max-offset survivor. Every
// acknowledged write must be on the promoted master.
func TestAckLossQuorumLosesNothing(t *testing.T) {
	t.Parallel()
	res, err := RunAckLossProbe(consistency.Quorum, 2, 7)
	if err != nil {
		t.Fatalf("probe harness failed: %v\ntrace:\n%s", err, res.H.TraceString())
	}
	if res.WritesAcked == 0 {
		t.Fatal("no writes acknowledged before the crash")
	}
	for _, l := range res.Lost {
		t.Errorf("quorum lost an acked write: %s", l)
	}
	t.Logf("quorum: %d acked, %d lost, promoted %s", res.WritesAcked, len(res.Lost), res.Promoted)
}

// TestAckLossAllLosesNothing runs the strictest level: every attached slave
// must hold a write before its reply fires, so the audit is clean no matter
// which survivor the NIC promotes.
func TestAckLossAllLosesNothing(t *testing.T) {
	t.Parallel()
	res, err := RunAckLossProbe(consistency.All, 0, 7)
	if err != nil {
		t.Fatalf("probe harness failed: %v\ntrace:\n%s", err, res.H.TraceString())
	}
	for _, l := range res.Lost {
		t.Errorf("all lost an acked write: %s", l)
	}
}

// TestAckLossDeterminism reruns the async and quorum probes and requires
// byte-identical traces and metrics — the probe is a chaos scenario and
// inherits the harness's determinism contract.
func TestAckLossDeterminism(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		name  string
		level consistency.Level
		w     int
	}{
		{"async", consistency.Async, 0},
		{"quorum", consistency.Quorum, 2},
	} {
		r1, err1 := RunAckLossProbe(tc.level, tc.w, 7)
		r2, err2 := RunAckLossProbe(tc.level, tc.w, 7)
		if err1 != nil || err2 != nil {
			t.Fatalf("%s: probe failed: %v / %v", tc.name, err1, err2)
		}
		if a, b := r1.H.TraceString(), r2.H.TraceString(); a != b {
			t.Fatalf("%s: traces diverged:\nrun1:\n%s\nrun2:\n%s", tc.name, a, b)
		}
		if a, b := r1.C.SnapshotsString(), r2.C.SnapshotsString(); a != b {
			t.Fatalf("%s: metric snapshots diverged", tc.name)
		}
	}
}
