package sim

import (
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"heb/internal/core"
	"heb/internal/esd"
	"heb/internal/jsonx"
	"heb/internal/power"
	"heb/internal/units"
)

// CappedFreq records one server's pre-capping frequency in a checkpoint;
// the engine's map serializes as a sorted slice so the encoding is
// deterministic across runs and worker counts.
type CappedFreq struct {
	ID   int             `json:"id"`
	Freq power.FreqLevel `json:"freq"`
}

// EngineState is the flight-recorder snapshot of a run at a control-slot
// boundary: every accumulator, the in-flight slot plan, and the full
// state of the storage devices, relay fabric, controller and feed.
// Restoring it into a freshly built engine of the same configuration and
// resuming produces step, event, decision and probe sequences identical
// to the uninterrupted run.
type EngineState struct {
	Steps int           `json:"steps"`
	Now   time.Duration `json:"now"`

	Decision      core.Decision `json:"decision"`
	View          core.SlotView `json:"view"`
	SlotPeak      units.Power   `json:"slot_peak"`
	SlotValley    units.Power   `json:"slot_valley"`
	SlotHasSample bool          `json:"slot_has_sample"`

	InMismatch bool      `json:"in_mismatch"`
	LastMode   core.Mode `json:"last_mode"`
	HaveMode   bool      `json:"have_mode"`

	LastShed time.Duration `json:"last_shed"`
	HasShed  bool          `json:"has_shed"`

	CappedFrom   []CappedFreq `json:"capped_from,omitempty"`
	DegradedSecs float64      `json:"degraded_secs"`

	ServedSC      units.Energy `json:"served_sc"`
	ServedBA      units.Energy `json:"served_ba"`
	RenewGen      units.Energy `json:"renew_gen"`
	RenewUsed     units.Energy `json:"renew_used"`
	RenewStored   units.Energy `json:"renew_stored"`
	RenewSpilled  units.Energy `json:"renew_spilled"`
	UtilityDrawn  units.Energy `json:"utility_drawn"`
	UtilityPeak   units.Power  `json:"utility_peak"`
	InitialStored units.Energy `json:"initial_stored"`

	ShedEvents    int `json:"shed_events"`
	MismatchSteps int `json:"mismatch_steps"`

	DischargeConvLoss units.Energy `json:"discharge_conv_loss"`
	UtilityConvLoss   units.Energy `json:"utility_conv_loss"`

	Battery  esd.DeviceState   `json:"battery"`
	Supercap *esd.DeviceState  `json:"supercap,omitempty"`
	Fabric   power.FabricState `json:"fabric"`

	Feed *power.UtilityFeedState `json:"feed,omitempty"`

	// The metric series and the controller are declared last, omitempty:
	// AppendCheckpoint marshals the state with these fields empty (the
	// reflected "head") and hand-appends them — the series through the
	// jsonx fast path, the controller through its own stitcher — so the
	// result still matches json.Marshal's field order byte-for-byte.
	DemandSeries []float64             `json:"demand_series,omitempty"`
	SlotPeaks    []float64             `json:"slot_peaks,omitempty"`
	SlotValleys  []float64             `json:"slot_valleys,omitempty"`
	Controller   *core.ControllerState `json:"controller,omitempty"`
}

// checkpoint assembles the state with the series fields aliasing the
// engine's live slices, which AppendCheckpoint marshals at once. It is
// meaningful only at a slot boundary (after finishSlot and the next
// planSlot). The controller is left to the caller: the full and delta
// paths encode it differently, and assembling the full PAT just to
// discard it would dominate the delta path's cost.
func (e *Engine) checkpoint() (EngineState, error) {
	st := EngineState{
		Steps:         e.steps,
		Now:           e.now,
		Decision:      e.decision,
		View:          e.view,
		SlotPeak:      e.slotPeak,
		SlotValley:    e.slotValley,
		SlotHasSample: e.slotHasSample,
		InMismatch:    e.inMismatch,
		LastMode:      e.lastMode,
		HaveMode:      e.haveMode,
		LastShed:      e.lastShed,
		HasShed:       e.hasShed,
		DegradedSecs:  e.degradedSecs,
		ServedSC:      e.servedSC,
		ServedBA:      e.servedBA,
		RenewGen:      e.renewGen,
		RenewUsed:     e.renewUsed,
		RenewStored:   e.renewStored,
		RenewSpilled:  e.renewSpilled,
		UtilityDrawn:  e.utilityDrawn,
		UtilityPeak:   e.utilityPeak,
		InitialStored: e.initialStored,
		DemandSeries:  e.demandSeries,
		SlotPeaks:     e.slotPeaks,
		SlotValleys:   e.slotValleys,
		ShedEvents:    e.shedEvents,
		MismatchSteps: e.mismatchSteps,
		Fabric:        e.fabric.Checkpoint(),
	}
	if e.dischargeConv != nil {
		st.DischargeConvLoss = e.dischargeConv.Loss()
	}
	if e.utilityConv != nil {
		st.UtilityConvLoss = e.utilityConv.Loss()
	}
	if len(e.cappedFrom) > 0 {
		st.CappedFrom = make([]CappedFreq, 0, len(e.cappedFrom))
		for id, f := range e.cappedFrom {
			st.CappedFrom = append(st.CappedFrom, CappedFreq{ID: id, Freq: f})
		}
		sort.Slice(st.CappedFrom, func(i, j int) bool { return st.CappedFrom[i].ID < st.CappedFrom[j].ID })
	}
	var err error
	if st.Battery, err = esd.CheckpointDevice(e.cfg.Battery); err != nil {
		return EngineState{}, fmt.Errorf("sim: checkpoint battery: %w", err)
	}
	if e.cfg.Supercap != nil {
		ds, err := esd.CheckpointDevice(e.cfg.Supercap)
		if err != nil {
			return EngineState{}, fmt.Errorf("sim: checkpoint supercap: %w", err)
		}
		st.Supercap = &ds
	}
	if uf, ok := e.cfg.Feed.(*power.UtilityFeed); ok {
		fs := uf.Checkpoint()
		st.Feed = &fs
	}
	return st, nil
}

// appendSeriesField appends `,"<key>":[...]` with the jsonx float fast
// path; key must carry the leading comma and trailing colon.
func appendSeriesField(b []byte, key string, s []float64) []byte {
	b = append(b, key...)
	return jsonx.AppendFloats(b, s)
}

// AppendCheckpoint appends the engine's serialized state (see
// EngineState) to b. It is meant for AfterPlan at a slot boundary, which
// is where the state resumes from; the flight recorder calls it there.
//
// The document is stitched rather than marshaled in one reflection pass:
// the reflected "head" (everything but the metric series and the
// controller) is cheap, while the series and the PAT — the two parts
// whose size grows with run length and table size — go through
// hand-rolled encoders. With delta, the record is delta-encoded against
// the previous one: the series carry only the samples grown since then
// (tagged with "<key>@base" splice offsets) and the PAT travels as a
// keyed-merge patch of the entries the slot touched, so a record's cost
// tracks slot activity instead of run history. The first record of a
// chain must be full, and delta PAT patches need the controller's
// TrackCheckpointDeltas before the run starts.
func (v *View) AppendCheckpoint(b []byte, delta bool) ([]byte, error) {
	e := v.e
	st, err := e.checkpoint()
	if err != nil {
		return b, err
	}
	// The head reflects everything except the series and controller;
	// both are declared omitempty and left unset here.
	series := [3][]float64{st.DemandSeries, st.SlotPeaks, st.SlotValleys}
	st.DemandSeries, st.SlotPeaks, st.SlotValleys = nil, nil, nil
	head, err := json.Marshal(st)
	if err != nil {
		return b, fmt.Errorf("sim: marshal checkpoint: %w", err)
	}
	b = append(b, head[:len(head)-1]...)
	if delta {
		b = appendSeriesField(b, `,"demand_series":`, series[0][e.ckptDemandLen:])
		b = appendSeriesField(b, `,"slot_peaks":`, series[1][e.ckptPeaksLen:])
		b = appendSeriesField(b, `,"slot_valleys":`, series[2][e.ckptValleysLen:])
		b = append(b, `,"demand_series@base":`...)
		b = jsonx.AppendInt(b, e.ckptDemandLen)
		b = append(b, `,"slot_peaks@base":`...)
		b = jsonx.AppendInt(b, e.ckptPeaksLen)
		b = append(b, `,"slot_valleys@base":`...)
		b = jsonx.AppendInt(b, e.ckptValleysLen)
	} else {
		b = appendSeriesField(b, `,"demand_series":`, series[0])
		b = appendSeriesField(b, `,"slot_peaks":`, series[1])
		b = appendSeriesField(b, `,"slot_valleys":`, series[2])
	}
	b = append(b, `,"controller":`...)
	if delta {
		cd, err := e.cfg.Controller.CheckpointDelta()
		if err != nil {
			return b, fmt.Errorf("sim: checkpoint controller: %w", err)
		}
		cb, err := json.Marshal(cd)
		if err != nil {
			return b, fmt.Errorf("sim: marshal controller delta: %w", err)
		}
		b = append(b, cb...)
	} else if b, err = e.cfg.Controller.AppendCheckpointJSON(b); err != nil {
		return b, fmt.Errorf("sim: checkpoint controller: %w", err)
	}
	b = append(b, '}')
	// Every record — keyframe or delta — becomes the next delta's
	// baseline: the series lengths and the PAT marks both reset here.
	e.ckptDemandLen = len(e.demandSeries)
	e.ckptPeaksLen = len(e.slotPeaks)
	e.ckptValleysLen = len(e.slotValleys)
	e.cfg.Controller.MarkCheckpointed()
	return b, nil
}

// RestoreJSON overwrites the engine's state from a checkpoint (as
// AppendCheckpoint encodes it, materialized if delta) taken by an engine
// of the same configuration. The next Run resumes at the checkpointed
// step with the checkpointed slot plan already in flight.
func (e *Engine) RestoreJSON(raw []byte) error {
	var st EngineState
	if err := json.Unmarshal(raw, &st); err != nil {
		return fmt.Errorf("sim: decode checkpoint: %w", err)
	}
	if st.Steps < 0 {
		return fmt.Errorf("sim: restore negative step count %d", st.Steps)
	}
	if err := esd.RestoreDevice(e.cfg.Battery, st.Battery); err != nil {
		return fmt.Errorf("sim: restore battery: %w", err)
	}
	if e.cfg.Supercap != nil {
		if st.Supercap == nil {
			return fmt.Errorf("sim: checkpoint has no supercap state but engine has a supercap pool")
		}
		if err := esd.RestoreDevice(e.cfg.Supercap, *st.Supercap); err != nil {
			return fmt.Errorf("sim: restore supercap: %w", err)
		}
	} else if st.Supercap != nil {
		return fmt.Errorf("sim: checkpoint has supercap state but engine has no supercap pool")
	}
	if err := e.fabric.Restore(st.Fabric); err != nil {
		return fmt.Errorf("sim: restore fabric: %w", err)
	}
	if st.Controller == nil {
		return fmt.Errorf("sim: checkpoint carries no controller state")
	}
	if err := e.cfg.Controller.Restore(*st.Controller); err != nil {
		return fmt.Errorf("sim: restore controller: %w", err)
	}
	if uf, ok := e.cfg.Feed.(*power.UtilityFeed); ok {
		if st.Feed == nil {
			return fmt.Errorf("sim: checkpoint has no feed state but engine feed is metered")
		}
		uf.Restore(*st.Feed)
	} else if st.Feed != nil {
		return fmt.Errorf("sim: checkpoint has feed state but engine feed is unmetered")
	}
	if e.dischargeConv != nil {
		e.dischargeConv.RestoreLoss(st.DischargeConvLoss)
	}
	if e.utilityConv != nil {
		e.utilityConv.RestoreLoss(st.UtilityConvLoss)
	}

	e.steps = st.Steps
	e.now = st.Now
	e.decision = st.Decision
	e.view = st.View
	e.slotPeak = st.SlotPeak
	e.slotValley = st.SlotValley
	e.slotHasSample = st.SlotHasSample
	e.inMismatch = st.InMismatch
	e.lastMode = st.LastMode
	e.haveMode = st.HaveMode
	e.lastShed = st.LastShed
	e.hasShed = st.HasShed
	e.degradedSecs = st.DegradedSecs
	e.servedSC = st.ServedSC
	e.servedBA = st.ServedBA
	e.renewGen = st.RenewGen
	e.renewUsed = st.RenewUsed
	e.renewStored = st.RenewStored
	e.renewSpilled = st.RenewSpilled
	e.utilityDrawn = st.UtilityDrawn
	e.utilityPeak = st.UtilityPeak
	e.initialStored = st.InitialStored
	e.demandSeries = append([]float64(nil), st.DemandSeries...)
	e.slotPeaks = append([]float64(nil), st.SlotPeaks...)
	e.slotValleys = append([]float64(nil), st.SlotValleys...)
	e.shedEvents = st.ShedEvents
	e.mismatchSteps = st.MismatchSteps
	e.cappedFrom = nil
	if len(st.CappedFrom) > 0 {
		e.cappedFrom = make(map[int]power.FreqLevel, len(st.CappedFrom))
		for _, cf := range st.CappedFrom {
			e.cappedFrom[cf.ID] = cf.Freq
		}
	}
	e.startStep = st.Steps
	// The restored checkpoint is the chain's last record: the next delta
	// emission encodes against exactly the state restored here.
	e.ckptDemandLen = len(e.demandSeries)
	e.ckptPeaksLen = len(e.slotPeaks)
	e.ckptValleysLen = len(e.slotValleys)
	return nil
}
