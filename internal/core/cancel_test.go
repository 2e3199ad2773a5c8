package core

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
)

// cancelAfterErrCalls is a context whose Err starts reporting Canceled
// after a fixed number of polls. Training loops poll Err exactly once per
// generation/round/epoch boundary, so this cancels a fit at a chosen,
// fully deterministic point — no timers, no goroutines. The count is
// atomic because parallel.Pool.RunCtx polls Err from its workers.
type cancelAfterErrCalls struct {
	context.Context
	calls atomic.Int64
	after int64
}

func (c *cancelAfterErrCalls) Err() error {
	if c.calls.Add(1) > c.after {
		return context.Canceled
	}
	return nil
}

// TestDirectAUCCancellationDeterminism pins the resilience contract the
// serve layer leans on: aborting a training run at generation k must not
// perturb anything — a fresh uncancelled run afterwards produces weights
// bit-identical to a run that was never preceded by a cancellation.
func TestDirectAUCCancellationDeterminism(t *testing.T) {
	train := gaussianSet(5, 300, 0.2, 2, 4)
	cfg := DirectAUCConfig{Seed: 9, Generations: 20}

	// Reference: never-cancelled run.
	ref := NewDirectAUC(cfg)
	if err := ref.Fit(train); err != nil {
		t.Fatal(err)
	}

	// A run cancelled mid-flight must error, leave the model unfitted,
	// and name the abort point.
	cancelled := NewDirectAUC(cfg)
	ctx := &cancelAfterErrCalls{Context: context.Background(), after: 14}
	err := cancelled.FitContext(ctx, train)
	if err == nil {
		t.Fatal("cancelled fit returned nil error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled fit error %v does not wrap context.Canceled", err)
	}
	if !strings.Contains(err.Error(), "cancelled") {
		t.Fatalf("error %v does not mention cancellation", err)
	}
	if cancelled.W != nil {
		t.Fatal("cancelled fit left weights behind")
	}
	if _, serr := cancelled.Scores(train); serr == nil {
		t.Fatal("cancelled model must refuse to score")
	}

	// Re-run uncancelled: bit-identical to the reference.
	rerun := NewDirectAUC(cfg)
	if err := rerun.FitContext(context.Background(), train); err != nil {
		t.Fatal(err)
	}
	if len(rerun.W) != len(ref.W) {
		t.Fatalf("weight lengths differ: %d vs %d", len(rerun.W), len(ref.W))
	}
	for i := range ref.W {
		if rerun.W[i] != ref.W[i] {
			t.Fatalf("weight %d differs after a cancelled run: %v vs %v", i, rerun.W[i], ref.W[i])
		}
	}
	if rerun.TrainAUC != ref.TrainAUC {
		t.Fatalf("train AUC differs: %v vs %v", rerun.TrainAUC, ref.TrainAUC)
	}
}

// TestFitContextMatchesFit pins that an uncancelled FitContext is the
// same computation as Fit for every cancellable learner.
func TestFitContextMatchesFit(t *testing.T) {
	train := gaussianSet(11, 300, 0.2, 2, 4)
	test := gaussianSet(12, 200, 0.2, 2, 4)
	pairs := []struct {
		name string
		mk   func() Model
	}{
		{"DirectAUC-ES", func() Model { return NewDirectAUC(DirectAUCConfig{Seed: 3, Generations: 10}) }},
		{"RankSVM", func() Model { return NewRankSVM(RankSVMConfig{Seed: 4, Epochs: 5}) }},
		{"RankBoost", func() Model { return NewRankBoost(RankBoostConfig{Rounds: 20}) }},
		{"RankNet", func() Model { return NewRankNet(RankNetConfig{Seed: 6, Epochs: 3}) }},
		{"Ensemble", func() Model {
			return NewEnsemble(nil,
				NewRankSVM(RankSVMConfig{Seed: 4, Epochs: 5}),
				NewRankBoost(RankBoostConfig{Rounds: 20}))
		}},
	}
	for _, p := range pairs {
		plain, ctxed := p.mk(), p.mk()
		if err := plain.Fit(train); err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		cf, ok := ctxed.(ContextFitter)
		if !ok {
			t.Fatalf("%s does not implement ContextFitter", p.name)
		}
		if err := cf.FitContext(context.Background(), train); err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		a, err := plain.Scores(test)
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		b, err := ctxed.(Model).Scores(test)
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: score %d differs between Fit and FitContext: %v vs %v", p.name, i, a[i], b[i])
			}
		}
	}
}

// TestCancelledFitsStayUnfitted drives every cancellable learner with an
// immediately-cancelled context and checks the abort contract: an error
// wrapping ctx.Err() and a model that refuses to score.
func TestCancelledFitsStayUnfitted(t *testing.T) {
	train := gaussianSet(13, 200, 0.2, 2, 4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	models := []Model{
		NewDirectAUC(DirectAUCConfig{Seed: 3, Generations: 10}),
		NewRankSVM(RankSVMConfig{Seed: 4, Epochs: 5}),
		NewRankBoost(RankBoostConfig{Rounds: 20}),
		NewRankNet(RankNetConfig{Seed: 6, Epochs: 3}),
		NewEnsemble(nil, NewRankSVM(RankSVMConfig{Seed: 4, Epochs: 5})),
	}
	for _, m := range models {
		err := FitModel(ctx, m, train)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: error %v does not wrap context.Canceled", m.Name(), err)
		}
		if _, serr := m.Scores(train); serr == nil {
			t.Fatalf("%s: cancelled model scored anyway", m.Name())
		}
	}
	// Non-ContextFitter models go through the single up-front check.
	if err := FitModel(ctx, NewDirectAUC(DirectAUCConfig{}), train); err == nil {
		t.Fatal("pre-cancelled FitModel must fail")
	}
}
