package heb

import (
	"encoding/json"
	"fmt"
	"sync"

	"heb/internal/obs"
	"heb/internal/obs/alerts"
	"heb/internal/runner"
	"heb/internal/sim"
)

// runCheckpointState is the full per-run flight-recorder payload: the
// engine's EngineState plus the run's observability prefixes (event log,
// decision trace, probe rings). The obs layer must ride along because a
// killed run never reaches Capture.WriteFiles — on resume the prefixes
// are reconstructed from the checkpoint so the final artifacts come out
// byte-identical to an uninterrupted run's.
type runCheckpointState struct {
	// Engine is the serialized sim.EngineState.
	Engine json.RawMessage `json:"engine"`
	// Obs carries the run's observability state; nil when the run has no
	// capture or probes attached.
	Obs *runObsState `json:"obs,omitempty"`
}

// runObsState is the observability half of a run checkpoint.
type runObsState struct {
	Events        []obs.Event             `json:"events,omitempty"`
	EventsDropped int                     `json:"events_dropped,omitempty"`
	Decisions     []obs.DecisionRecord    `json:"decisions,omitempty"`
	Probes        *obs.ProbeRecorderState `json:"probes,omitempty"`
}

// runCheckpointDelta is runCheckpointState for delta records: Engine
// carries the engine's own delta encoding and Obs the suffixed logs.
type runCheckpointDelta struct {
	Engine json.RawMessage `json:"engine"`
	Obs    *runObsDelta    `json:"obs,omitempty"`
}

// runObsDelta is runObsState delta-encoded: the append-only event and
// decision logs carry only the entries recorded since the previous
// checkpoint, tagged with the "<key>@base" splice offsets that
// obs.MaterializeAt understands. The suffix fields drop omitempty so an
// idle slot still records its splice point. The probe rings are bounded
// (old samples are overwritten in place), so every record carries them
// whole, but the checkpoint writer re-marshals none of that: it splices
// the recorder's memoized encoding (obs.ProbeRecorder.AppendStateJSON) in
// as the last field, which is why Probes must stay last here and in
// runObsState. The field itself serves the resume path's decoding.
type runObsDelta struct {
	Events        []obs.Event             `json:"events"`
	EventsBase    int                     `json:"events@base"`
	EventsDropped int                     `json:"events_dropped,omitempty"`
	Decisions     []obs.DecisionRecord    `json:"decisions"`
	DecisionsBase int                     `json:"decisions@base"`
	Probes        *obs.ProbeRecorderState `json:"probes,omitempty"`
}

// ckptBufPool holds the buffers the flight recorder serializes engine
// state into, borrowed for one record and returned grown: once a keyframe
// has sized one, records allocate nothing for the engine state, however
// many short-lived runs come and go.
var ckptBufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 64<<10)
	return &b
}}

// flightRecorder is a run's checkpoint instrument. At every every-th slot
// boundary it stitches one record from the engine state, the capture's
// event and decision log suffixes and the probe rings. The bytes are
// fixed on the engine goroutine; hashing, chain storage and sink delivery
// lag behind on one tail worker so the engine can step on. drain returns
// once every record is stored and delivered, in chain order.
type flightRecorder struct {
	every     int
	log       *obs.CheckpointLog
	events    *obs.Log
	decisions *obs.DecisionLog
	probes    *obs.ProbeRecorder
	alerter   *alerts.Engine
	sink      func(obs.CheckpointRecord)
	progress  *runner.Progress

	// chainLen is the chain position of the next record. Keyframe cadence
	// is a function of it alone, so a resumed chain continues the exact
	// keyframe/delta sequence of an uninterrupted run. The log cannot
	// tell it: the log trails the engine by the tail worker's backlog.
	chainLen int
	// eventsBase and decisionsBase are the delta splice bases: how much of
	// each log the previous record (or the restored checkpoint) carried.
	eventsBase, decisionsBase int
	probeBuf                  []byte // the probe rings' encoding, reused

	queue chan obs.CheckpointRecord // taken, not yet hashed and chained
	done  chan any                  // the tail worker's exit: nil, or what it panicked with
}

// start seeds the log with the chain the run extends, so a resumed run's
// checkpoints.jsonl is a byte-identical extension of it, and starts the
// tail worker. Alerted runs keep the tail synchronous: the alert engine
// is fed from the engine goroutine every step, and feeding it chain
// hashes from the worker would race.
func (r *flightRecorder) start(prior []obs.CheckpointRecord) {
	r.log.Seed(prior)
	r.chainLen = r.log.Len()
	if r.alerter != nil {
		return
	}
	// Eight records of slack let the engine run several slots ahead of
	// a slow sink before a boundary blocks on the queue.
	q := make(chan obs.CheckpointRecord, 8)
	r.queue, r.done = q, make(chan any, 1)
	go func() {
		defer func() {
			p := recover()
			if p != nil {
				for range q { // keep the engine from blocking on a dead worker
				}
			}
			r.done <- p
		}()
		for it := range q {
			r.store(it)
		}
	}()
}

// drain joins the tail worker; it runs when the engine stops and, again
// as a no-op, on every early-error path.
func (r *flightRecorder) drain() {
	if r == nil || r.queue == nil {
		return
	}
	close(r.queue)
	r.queue = nil
	if p := <-r.done; p != nil {
		panic(p)
	}
}

func (r *flightRecorder) store(it obs.CheckpointRecord) {
	rec := r.log.AppendOwned(it.Slot, it.Step, it.Seconds, it.State, it.Delta)
	if r.alerter != nil {
		r.alerter.ObserveCheckpoint(it.Seconds, rec.Prev, rec.Hash)
	}
	if r.sink != nil {
		r.sink(rec)
	}
	if r.progress != nil {
		r.progress.AddCheckpoints(1)
	}
}

// Observe takes a record after the plan of every every-th slot boundary.
func (r *flightRecorder) Observe(v *sim.View, at sim.Point) bool {
	slot := v.Slot()
	if at == sim.RunStart && r.events != nil {
		// A resumed run's logs start with the restored prefixes.
		r.eventsBase, r.decisionsBase = r.events.Len(), r.decisions.Len()
	}
	if at != sim.AfterPlan || slot == 0 || slot%r.every != 0 {
		return false
	}
	delta := r.chainLen%obs.DefaultKeyframeEvery != 0
	bp := ckptBufPool.Get().(*[]byte)
	state, err := v.AppendCheckpoint((*bp)[:0], delta)
	if err != nil {
		// State assembly fails only on a device/predictor type the
		// serializer does not know; surface loudly rather than record a
		// silently broken chain.
		panic(fmt.Sprintf("heb: checkpoint at slot %d: %v", slot, err))
	}
	raw := r.record(state, delta)
	*bp = state
	ckptBufPool.Put(bp)
	r.chainLen++
	it := obs.CheckpointRecord{Slot: slot, Step: v.Step(), Seconds: v.Now().Seconds(), State: raw, Delta: delta}
	if r.queue != nil {
		r.queue <- it
	} else {
		r.store(it)
	}
	return false
}

// record stitches one record around the engine state. The state is
// already compact JSON, so it is not re-marshaled through a
// json.RawMessage field — Marshal would re-scan (compact) the whole
// payload on every record. The stitched bytes match what marshaling
// runCheckpointState/runCheckpointDelta produces, and the resume path
// still decodes through those types. The probe rings are stitched in the
// same way, as the obs object's last field (where both structs declare
// Probes), from the recorder's memoized encoding: only the samples
// recorded since the previous record are marshaled.
func (r *flightRecorder) record(state []byte, delta bool) []byte {
	var obsRaw, probeRaw []byte
	if r.events != nil || r.probes != nil {
		var err error
		obsRaw, err = json.Marshal(r.obsState(delta))
		if r.events != nil {
			r.eventsBase, r.decisionsBase = r.events.Len(), r.decisions.Len()
		}
		if err == nil && r.probes != nil {
			probeRaw, err = r.probes.AppendStateJSON(r.probeBuf[:0])
			r.probeBuf = probeRaw
		}
		if err != nil {
			panic(fmt.Sprintf("heb: marshal checkpoint: %v", err))
		}
	}
	raw := make([]byte, 0, len(`{"engine":`)+len(state)+len(`,"obs":`)+len(obsRaw)+len(`,"probes":`)+len(probeRaw)+1)
	raw = append(append(raw, `{"engine":`...), state...)
	if obsRaw != nil {
		raw = append(raw, `,"obs":`...)
		if probeRaw == nil {
			raw = append(raw, obsRaw...)
		} else {
			raw = append(raw, obsRaw[:len(obsRaw)-1]...)
			if len(obsRaw) > len(`{}`) {
				raw = append(raw, ',')
			}
			raw = append(append(append(raw, `"probes":`...), probeRaw...), '}')
		}
	}
	return append(raw, '}')
}

// obsState is a record's log state: the whole event and decision logs for
// a keyframe, only what they gained since the previous record for a delta.
func (r *flightRecorder) obsState(delta bool) any {
	if !delta {
		o := &runObsState{}
		if r.events != nil {
			o.Events, o.EventsDropped, o.Decisions = r.events.Events(), r.events.Dropped(), r.decisions.Records()
		}
		return o
	}
	o := &runObsDelta{EventsBase: r.eventsBase, DecisionsBase: r.decisionsBase}
	if r.events != nil {
		o.Events, o.EventsDropped = r.events.EventsSince(r.eventsBase), r.events.Dropped()
		o.Decisions = r.decisions.RecordsSince(r.decisionsBase)
	}
	return o
}
