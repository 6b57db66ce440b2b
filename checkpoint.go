package heb

import (
	"encoding/json"

	"heb/internal/obs"
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
