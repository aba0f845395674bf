package experiments

import (
	"context"
	"testing"
	"time"

	"goldmine/internal/serve"
)

// TestServePassTimesEachJobToItsOwnFinish: a fast job submitted after a slow
// one reports its own latency, not the slow job's.
func TestServePassTimesEachJobToItsOwnFinish(t *testing.T) {
	slow := 300 * time.Millisecond
	s, err := serve.New(serve.Config{
		Workers: 2,
		Runner: func(ctx context.Context, spec *serve.JobSpec) (*serve.Artifact, error) {
			if spec.Design == serveBenchDesigns[0] {
				time.Sleep(slow)
			}
			return &serve.Artifact{Design: spec.Design}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	lats, _, err := runServePass(s, 2)
	if err != nil {
		t.Fatal(err)
	}
	if lats[0] < slow || lats[1] >= slow/2 {
		t.Fatalf("latencies = %v, want the slow job >= %v and the fast one well under it", lats, slow)
	}
}
