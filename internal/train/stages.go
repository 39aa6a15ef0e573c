package train

import (
	"sync/atomic"
	"time"
)

// Stage names one total of the engine stage clock (Result.Stages).
type Stage int

// The loop stages partition a trainer loop's wall time. Every iteration
// passes through them in this order (the collective's two phases bracket
// the step), each ending where the next begins, so their totals sum to the
// loop's wall time and their shares to 1.
const (
	StageHandoff       Stage = iota // waiting for the stager to hand over the next iteration
	StageForwardDense               // slice extraction and the embedding-free layers forward
	StageWaitStage                  // gather: waiting for stage(x) to snapshot its replicas
	StageWaitReplicas               // gather: waiting for the peers' replica pushes
	StageSparse                     // row table, head forward, loss and backward to dEmb
	StageRoute                      // partials, local merges, hand-off to the flusher
	StageBackwardDense              // the embedding-free layers backward
	StageCollWait                   // collective, both phases: waiting for the other ranks to arrive
	StageCollFold                   // collective, both phases: the rest (fold, wake-up, gather)
	StageStep                       // the optimizer step of this trainer's chunk, between the phases, and loss bookkeeping
	numLoopStages
)

// The other totals run beside the loop. The waits are the stager's and the
// dispatcher's, which the loop feels through StageHandoff; a busy total is
// the time a service goroutine spent on work rather than waiting for it.
const (
	StageWaitRows     Stage = numLoopStages + iota // stager: prefetched rows
	StageWaitMerges                                // stager: earlier merges on the rows it uses
	StageWaitPlan                                  // dispatcher: the next plan (the mesh's, in worker mode)
	StageWaitToken                                 // dispatcher: a lookahead token (the ℒ window)
	StageWaitDepth                                 // dispatcher: a depth credit (at most D admitted and unrouted)
	StageBusyDispatch                              // dispatcher: prefetches in flight, summed over concurrent ones
	StageBusyStager                                // stager: stage(x) less its two waits
	StageBusyFlusher
	StageBusyReceiver
	StageBusyMaint
	NumStages
)

var stageNames = [NumStages]string{
	"handoff", "forward-dense", "wait-stage", "wait-replicas", "sparse",
	"route", "backward-dense", "coll-wait", "coll-fold", "step",
	"wait-rows", "wait-merges", "wait-plan", "wait-token", "wait-depth",
	"busy-dispatch", "busy-stager", "busy-flusher", "busy-receiver", "busy-maint",
}

func (s Stage) String() string { return stageNames[s] }

// Stages is the engine stage clock of a run: monotonic per-stage totals for
// every trainer this process hosted, and the process's CPU time over the
// run. On a host with fewer cores than goroutines, stage wall time includes
// time spent descheduled; CPU / Result.Elapsed says how many cores the run
// kept busy.
type Stages struct {
	CPU      time.Duration // user + system CPU of the process (zero where getrusage is missing)
	Trainers []TrainerStages
}

// TrainerStages is one trainer's totals, indexed by Stage.
type TrainerStages struct {
	Trainer int
	Time    [NumStages]time.Duration
}

// Loop returns the trainer loop's wall time: the sum of the loop stages.
func (s *TrainerStages) Loop() time.Duration {
	var d time.Duration
	for _, v := range s.Time[:numLoopStages] {
		d += v
	}
	return d
}

// Share returns st's total as a fraction of the loop's wall time. The loop
// stages' shares sum to 1; a stage beside the loop may exceed it.
func (s *TrainerStages) Share(st Stage) float64 {
	loop := s.Loop()
	if loop <= 0 {
		return 0
	}
	return float64(s.Time[st]) / float64(loop)
}

// stageClock is a trainer's live totals in nanoseconds. Several goroutines
// add to it (concurrent prefetches to one total), so every total is atomic;
// nothing on it allocates.
type stageClock struct {
	ns [NumStages]atomic.Int64
}

// lap charges the time since from to st and returns now, so consecutive
// laps partition a goroutine's time.
func (c *stageClock) lap(st Stage, from time.Time) time.Time {
	now := time.Now()
	c.ns[st].Add(int64(now.Sub(from)))
	return now
}

func (c *stageClock) add(st Stage, d time.Duration) { c.ns[st].Add(int64(d)) }

func (c *stageClock) snapshot(trainer int) TrainerStages {
	s := TrainerStages{Trainer: trainer}
	for i := range c.ns {
		s.Time[i] = time.Duration(c.ns[i].Load())
	}
	return s
}
