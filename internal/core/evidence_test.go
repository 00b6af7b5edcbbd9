package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/datalake"
	"repro/internal/obs"
	"repro/internal/verify"
)

// scriptedVerifier records the evidence IDs it is asked about, in call
// order, and runs hook (when set) on each before answering NotRelated.
type scriptedVerifier struct {
	mu   sync.Mutex
	seen []string
	hook func(n int, ev datalake.Instance) error // n counts calls from 1
}

func (v *scriptedVerifier) Name() string                                  { return "scripted" }
func (v *scriptedVerifier) Supports(verify.Generated, datalake.Kind) bool { return true }
func (v *scriptedVerifier) Verify(g verify.Generated, ev datalake.Instance) (verify.Result, error) {
	v.mu.Lock()
	v.seen = append(v.seen, ev.ID)
	n, hook := len(v.seen), v.hook
	v.mu.Unlock()
	if hook != nil {
		if err := hook(n, ev); err != nil {
			return verify.Result{}, err
		}
	}
	return verify.Result{Verdict: verify.NotRelated, Verifier: v.Name(), EvidenceID: ev.ID}, nil
}

// script resets the record and installs hook for the next verify.
func (v *scriptedVerifier) script(hook func(n int, ev datalake.Instance) error) {
	v.mu.Lock()
	v.seen, v.hook = nil, hook
	v.mu.Unlock()
}

func (v *scriptedVerifier) calls() []string {
	v.mu.Lock()
	defer v.mu.Unlock()
	return slices.Clone(v.seen)
}

// evidenceError is the error the scripted verifier returns for one
// evidence instance.
type evidenceError struct{ id string }

func (e evidenceError) Error() string { return fmt.Sprintf("refused evidence %s", e.id) }

// TestVerifyEvidenceInRankOrder: the top-k′ evidence is verified in rank
// order on the verify's own goroutine. A failure on evidence 2 returns
// evidence 2's error, evidence 3-5 never reach the verifier, and the call
// counter counts exactly the two calls made; a cancellation during
// evidence 1 stops the verify before evidence 2, and a deadline that
// expires inside the last verification still fails the verify.
func TestVerifyEvidenceInRankOrder(t *testing.T) {
	lake := smallLake(t)
	base := buildPipeline(t, lake, true)
	sv := &scriptedVerifier{}
	reg := obs.NewRegistry()
	cfg := DefaultPipelineConfig()
	cfg.Metrics = reg
	p, err := NewPipeline(lake, base.Indexer(), base.rerankers, verify.NewAgent(sv), nil, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	calls := reg.Counter("verifai_verifier_calls_total", "")
	g := golfClaimObject()

	rep, err := p.Verify(g)
	if err != nil {
		t.Fatal(err)
	}
	ids := sv.calls()
	if len(ids) != cfg.TopKPrime || len(rep.Evidence) != len(ids) {
		t.Fatalf("verified %d instances (%d in the report), want k′ = %d", len(ids), len(rep.Evidence), cfg.TopKPrime)
	}
	for i, ev := range rep.Evidence {
		if ev.Instance.ID != ids[i] {
			t.Fatalf("evidence %d verified as %s, reported as %s: not in rank order", i+1, ids[i], ev.Instance.ID)
		}
	}

	t.Run("error", func(t *testing.T) {
		sv.script(func(n int, ev datalake.Instance) error {
			if ev.ID == ids[1] {
				return evidenceError{ev.ID}
			}
			return nil
		})
		before := calls.Value()
		_, err := p.Verify(g)
		var ee evidenceError
		if !errors.As(err, &ee) || ee.id != ids[1] {
			t.Fatalf("verify returned %v, want evidence 2's error (%s)", err, ids[1])
		}
		if got := sv.calls(); !slices.Equal(got, ids[:2]) {
			t.Errorf("verifier saw %v, want only evidence 1-2 %v", got, ids[:2])
		}
		if d := calls.Value() - before; d != 2 {
			t.Errorf("verifai_verifier_calls_total rose by %d, want 2", d)
		}
	})

	t.Run("cancel", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		sv.script(func(n int, _ datalake.Instance) error {
			if n == 1 {
				cancel()
			}
			return nil
		})
		if _, err := p.VerifyCtx(ctx, g); !errors.Is(err, context.Canceled) {
			t.Fatalf("verify returned %v, want context.Canceled", err)
		}
		if got := sv.calls(); !slices.Equal(got, ids[:1]) {
			t.Errorf("verifier saw %v after a cancel during evidence 1, want %v", got, ids[:1])
		}
	})

	t.Run("deadline", func(t *testing.T) {
		ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
		defer cancel()
		sv.script(func(n int, _ datalake.Instance) error {
			if n == len(ids) {
				<-ctx.Done() // outlive the deadline
			}
			return nil
		})
		if _, err := p.VerifyCtx(ctx, g); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("verify returned %v, want context.DeadlineExceeded", err)
		}
		if got := sv.calls(); !slices.Equal(got, ids) {
			t.Fatalf("verifier saw %v, want all of %v: the deadline expired before the last evidence", got, ids)
		}
	})
}
