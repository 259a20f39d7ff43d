package cluster

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// updateGoldens regenerates the pinned chaos traces instead of comparing
// against them. Only rerun it when a change is *supposed* to alter the
// async-mode event schedule — the whole point of the pin is that refactors
// of the ack/consistency machinery must not.
var updateGoldens = flag.Bool("update-goldens", false, "rewrite testdata/chaos_trace_*.golden from the current build")

// TestChaosGoldenTraces pins every canned chaos scenario's trace, byte for
// byte, against goldens captured before the consistency-plane refactor
// (PR 9). The scenarios all run at the default WriteConsistency (async), so
// this is the contract that async mode stays bit-for-bit legacy: not just
// deterministic run-to-run, but identical to the pre-refactor build.
func TestChaosGoldenTraces(t *testing.T) {
	t.Parallel()
	for _, s := range ChaosScenarios() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			_, h, err := RunScenario(s)
			if err != nil {
				t.Fatalf("scenario failed: %v\ntrace:\n%s", err, h.TraceString())
			}
			path := filepath.Join("testdata", "chaos_trace_"+s.Name+".golden")
			got := h.TraceString()
			if *updateGoldens {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run go test -run TestChaosGoldenTraces -args -update-goldens): %v", err)
			}
			if got != string(want) {
				t.Fatalf("trace diverged from pre-refactor golden %s:\n--- golden:\n%s--- got:\n%s", path, want, got)
			}
		})
	}
}
