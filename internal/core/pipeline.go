package core

import (
	"context"
	"math/rand"
	"sync"

	"repro/internal/anf"
	"repro/internal/proof"
)

// techJob is one fact learner of an iteration's snapshot phase: a closure
// over the read-only master system, the stats bucket it reports into, the
// derived seed for its private RNG, and what it learnt.
type techJob struct {
	name  string
	tech  string // proof.Tech* label for the provenance ledger
	stats *PhaseStats
	seed  int64
	learn func(rng *rand.Rand, w *witnessLog) []anf.Poly
	ran   bool
	facts []anf.Poly
	log   witnessLog // how facts were derived, filled in with provenance on
}

// deriveSeed mixes the run seed, iteration and job index into a decorrelated
// per-technique seed (splitmix64 finalizer). Only the inputs matter — not
// execution order — so any Workers fan-out sees identical streams.
func deriveSeed(base int64, iter, job int) int64 {
	z := uint64(base) + 0x9E3779B97F4A7C15*uint64(iter+1) + 0xBF58476D1CE4E5B9*uint64(job+1)
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z)
}

// snapshotJobs assembles the iteration's enabled fact learners in the fixed
// merge order: XL, ElimLin, extra techniques (registration order), then the
// optional Gröbner phase.
func snapshotJobs(ctx context.Context, sys *anf.System, cfg Config, res *Result, iter int) []*techJob {
	var jobs []*techJob
	add := func(name, tech, note string, stats *PhaseStats, learn func(*rand.Rand, *witnessLog) []anf.Poly) {
		jobs = append(jobs, &techJob{
			name:  name,
			tech:  tech,
			stats: stats,
			seed:  deriveSeed(cfg.Seed, iter, len(jobs)),
			learn: learn,
			log:   witnessLog{note: note},
		})
	}
	// plain runs a Technique, which records no witnesses.
	plain := func(t Technique) func(*rand.Rand, *witnessLog) []anf.Poly {
		return func(rng *rand.Rand, _ *witnessLog) []anf.Poly { return t.Learn(ctx, sys, rng) }
	}
	if !cfg.DisableXL {
		add("XL", proof.TechXL, "", &res.XL, func(rng *rand.Rand, w *witnessLog) []anf.Poly {
			return runXL(sys, XLConfig{M: cfg.M, DeltaM: cfg.DeltaM, Deg: cfg.XLDeg, Context: ctx, Rand: rng}, w)
		})
	}
	if !cfg.DisableElimLin {
		add("ElimLin", proof.TechElimLin, "", &res.ElimLin, func(rng *rand.Rand, w *witnessLog) []anf.Poly {
			return runElimLin(sys, ElimLinConfig{M: cfg.M, Context: ctx, Rand: rng}, w)
		})
	}
	for _, tech := range cfg.ExtraTechniques {
		add(tech.Name(), proof.TechExtra, tech.Name(), &res.Extra, plain(tech))
	}
	if cfg.EnableGroebner {
		add("Groebner", proof.TechGroebner, "buchberger reduction", &res.Groebner, plain(BuchbergerTechnique()))
	}
	return jobs
}

// runSnapshotPhase runs one iteration's fact learners against the
// iteration-start system and merges their fact batches in job order. All
// learners see the same snapshot (they only read sys; each already works
// on subsampled copies), so a learner sees the facts of the ones before it
// from the next iteration on, and the learnt facts — and therefore the
// whole Result — are identical for every Workers value; Workers > 1 only
// changes how many run at once. A learner starts only if the run has not
// expired by the time it takes its slot. Returns the number of new facts
// and false if the merge derived a contradiction.
func runSnapshotPhase(ctx context.Context, prop *Propagator, cfg Config, res *Result, iter int,
	expired func() bool, logf func(string, ...interface{})) (int, bool) {
	sys := prop.Sys
	jobs := snapshotJobs(ctx, sys, cfg, res, iter)
	if len(jobs) == 0 {
		return 0, true
	}
	// Pre-warm the system's monomial table: once every stored polynomial
	// carries canonical interned terms, the concurrent subsample passes
	// below only ever take the table's read-only fast path.
	sys.MonoTable()

	run := func(j *techJob) {
		if expired() {
			return
		}
		var w *witnessLog
		if prop.prov != nil {
			w = &j.log
		}
		j.facts, j.ran = j.learn(NewRNG(j.seed), w), true
	}
	if cfg.Workers > 1 {
		sem := make(chan struct{}, cfg.Workers)
		var wg sync.WaitGroup
		for _, j := range jobs {
			j := j
			wg.Add(1)
			sem <- struct{}{}
			go func() {
				defer func() { <-sem; wg.Done() }()
				run(j)
			}()
		}
		wg.Wait()
	} else {
		for _, j := range jobs {
			run(j)
		}
	}

	// Merge in fixed technique order: one merge per technique keeps the
	// per-phase stats and the propagation order seed-reproducible. Witness
	// slots refer to the iteration-start system every learner saw, so the
	// slot→record snapshot is taken once, before the first merge mutates
	// the slot records.
	snap := prop.ProvSnapshot()
	total := 0
	for _, j := range jobs {
		if !j.ran {
			continue
		}
		added, ok := prop.merge(j.facts, &j.log, j.tech, iter, snap)
		j.stats.Runs++
		j.stats.NewFacts += added
		total += added
		logf("iter %d: %s learnt %d facts (%d new)", iter, j.name, len(j.facts), added)
		if !ok {
			return total, false
		}
	}
	return total, true
}
