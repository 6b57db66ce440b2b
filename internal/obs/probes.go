package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"

	"heb/internal/jsonx"
)

// ProbeSample is one decimated observation of a single storage device's
// internal state. Samples carry only simulation-deterministic values so
// probe artifacts stay byte-identical for any worker count.
type ProbeSample struct {
	// Seconds is the simulation time of the sample.
	Seconds float64 `json:"t"`
	// Device names the probed device within its run, e.g. "battery/0".
	Device string `json:"device"`
	// SoC is the usable-window state of charge in [0, 1].
	SoC float64 `json:"soc"`
	// VoltageV is the open-circuit voltage.
	VoltageV float64 `json:"v"`
	// PowerW is the mean net terminal power since the previous sample of
	// this device (positive discharging, negative charging); zero on the
	// first sample.
	PowerW float64 `json:"w"`
	// AvailAh and BoundAh are the KiBaM wells in ampere-hours (bound is
	// zero for super-capacitors).
	AvailAh float64 `json:"avail_ah"`
	BoundAh float64 `json:"bound_ah"`
	// ThroughputAh is the cumulative discharged charge.
	ThroughputAh float64 `json:"ah"`
	// Run labels the originating run in multi-run artifacts.
	Run string `json:"run,omitempty"`
}

// probeRing is one device's bounded sample history.
type probeRing struct {
	device  string
	samples []ProbeSample // ring storage, len == cap once full
	next    int           // write position
	dropped int64         // samples overwritten by the ring
	// lastNetWh/lastSec support the power derivative between samples.
	lastNetWh float64
	lastSec   float64
	primed    bool
	// enc memoizes json.Marshal of samples[i] in enc[i] (nil = not yet
	// encoded). AppendStateJSON builds it; Record only clears the slot it
	// overwrites, so a run that never checkpoints never allocates it.
	enc [][]byte
}

// DefaultProbeRing bounds the samples kept per device: at the default
// 60 s decimation it holds close to three days of simulated history.
const DefaultProbeRing = 4096

// ProbeRecorder collects ring-buffered per-device time series. It is not
// safe for concurrent use; the engine records from its single run
// goroutine, and each run owns its own recorder.
type ProbeRecorder struct {
	ringCap int
	rings   []*probeRing
	index   map[string]int
}

// NewProbeRecorder builds a recorder keeping at most ringCap samples per
// device (<= 0 selects DefaultProbeRing).
func NewProbeRecorder(ringCap int) *ProbeRecorder {
	if ringCap <= 0 {
		ringCap = DefaultProbeRing
	}
	return &ProbeRecorder{ringCap: ringCap, index: make(map[string]int)}
}

// ring returns the device's ring, creating it on first use and preserving
// registration order for deterministic output.
func (r *ProbeRecorder) ring(device string) *probeRing {
	if i, ok := r.index[device]; ok {
		return r.rings[i]
	}
	ring := &probeRing{device: device}
	r.index[device] = len(r.rings)
	r.rings = append(r.rings, ring)
	return ring
}

// Record appends one sample for device at sec simulation seconds. netWh is
// the device's cumulative net output energy (discharged minus charged, in
// watt-hours) from which the recorder derives the mean terminal power
// since the device's previous sample.
func (r *ProbeRecorder) Record(device string, sec float64, soc, voltage, availAh, boundAh, throughputAh, netWh float64) {
	ring := r.ring(device)
	s := ProbeSample{
		Seconds:      sec,
		Device:       device,
		SoC:          soc,
		VoltageV:     voltage,
		AvailAh:      availAh,
		BoundAh:      boundAh,
		ThroughputAh: throughputAh,
	}
	if ring.primed {
		if dt := sec - ring.lastSec; dt > 0 {
			s.PowerW = (netWh - ring.lastNetWh) * 3600 / dt
		}
	}
	ring.lastNetWh = netWh
	ring.lastSec = sec
	ring.primed = true

	if len(ring.samples) < r.ringCap {
		ring.samples = append(ring.samples, s)
		return
	}
	ring.samples[ring.next] = s
	if ring.next < len(ring.enc) {
		ring.enc[ring.next] = nil
	}
	ring.next++
	if ring.next == r.ringCap {
		ring.next = 0
	}
	ring.dropped++
}

// ProbeRingState is one device ring's checkpointed state, raw: samples in
// storage order with the write cursor, not unwrapped, so a restore is an
// exact structural clone and subsequent drops land identically.
type ProbeRingState struct {
	Device    string        `json:"device"`
	Samples   []ProbeSample `json:"samples,omitempty"`
	Next      int           `json:"next"`
	Dropped   int64         `json:"dropped,omitempty"`
	LastNetWh float64       `json:"last_net_wh"`
	LastSec   float64       `json:"last_sec"`
	Primed    bool          `json:"primed"`
}

// ProbeRecorderState is the flight-recorder snapshot of a ProbeRecorder.
type ProbeRecorderState struct {
	RingCap int              `json:"ring_cap"`
	Rings   []ProbeRingState `json:"rings,omitempty"`
}

// State captures the recorder's full state.
func (r *ProbeRecorder) State() ProbeRecorderState {
	st := ProbeRecorderState{RingCap: r.ringCap}
	for _, ring := range r.rings {
		st.Rings = append(st.Rings, ProbeRingState{
			Device:    ring.device,
			Samples:   append([]ProbeSample(nil), ring.samples...),
			Next:      ring.next,
			Dropped:   ring.dropped,
			LastNetWh: ring.lastNetWh,
			LastSec:   ring.lastSec,
			Primed:    ring.primed,
		})
	}
	return st
}

// AppendStateJSON appends json.Marshal(r.State()) to b, byte for byte,
// and fails with json.Marshal's error where that would (a NaN or ±Inf
// value). Each sample is marshaled once: its bytes stay memoized in its
// ring slot until Record overwrites the slot, so a recorder checkpointed
// every slot encodes only the samples recorded since the last checkpoint.
func (r *ProbeRecorder) AppendStateJSON(b []byte) ([]byte, error) {
	b = append(b, `{"ring_cap":`...)
	b = strconv.AppendInt(b, int64(r.ringCap), 10)
	if len(r.rings) > 0 {
		b = append(b, `,"rings":[`...)
		for i, ring := range r.rings {
			if i > 0 {
				b = append(b, ',')
			}
			var err error
			if b, err = ring.appendStateJSON(b); err != nil {
				return nil, err
			}
		}
		b = append(b, ']')
	}
	return append(b, '}'), nil
}

// appendStateJSON appends the ring's ProbeRingState encoding to b.
func (ring *probeRing) appendStateJSON(b []byte) ([]byte, error) {
	device, err := json.Marshal(ring.device)
	if err != nil {
		return nil, err
	}
	b = append(b, `{"device":`...)
	b = append(b, device...)
	if len(ring.samples) > 0 {
		for len(ring.enc) < len(ring.samples) {
			ring.enc = append(ring.enc, nil)
		}
		b = append(b, `,"samples":[`...)
		for i := range ring.samples {
			if ring.enc[i] == nil {
				if ring.enc[i], err = json.Marshal(ring.samples[i]); err != nil {
					return nil, err
				}
			}
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, ring.enc[i]...)
		}
		b = append(b, ']')
	}
	b = append(b, `,"next":`...)
	b = strconv.AppendInt(b, int64(ring.next), 10)
	if ring.dropped != 0 {
		b = append(b, `,"dropped":`...)
		b = strconv.AppendInt(b, ring.dropped, 10)
	}
	b = append(b, `,"last_net_wh":`...)
	if b, err = appendFloatJSON(b, ring.lastNetWh); err != nil {
		return nil, err
	}
	b = append(b, `,"last_sec":`...)
	if b, err = appendFloatJSON(b, ring.lastSec); err != nil {
		return nil, err
	}
	b = append(b, `,"primed":`...)
	b = strconv.AppendBool(b, ring.primed)
	return append(b, '}'), nil
}

// appendFloatJSON appends f as encoding/json writes a float64, and
// returns json.Marshal's error for the values it rejects.
func appendFloatJSON(b []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		_, err := json.Marshal(f)
		return nil, err
	}
	return jsonx.AppendFloat(b, f), nil
}

// Restore overwrites the recorder from a checkpoint. The ring capacity
// must match the recorder's — a different bound would shift where future
// samples drop.
func (r *ProbeRecorder) Restore(st ProbeRecorderState) error {
	if st.RingCap != r.ringCap {
		return fmt.Errorf("obs: restore probe ring cap %d into recorder with cap %d", st.RingCap, r.ringCap)
	}
	r.rings = r.rings[:0]
	r.index = make(map[string]int, len(st.Rings))
	for _, rs := range st.Rings {
		ring := &probeRing{
			device:    rs.Device,
			samples:   append([]ProbeSample(nil), rs.Samples...),
			next:      rs.Next,
			dropped:   rs.Dropped,
			lastNetWh: rs.LastNetWh,
			lastSec:   rs.LastSec,
			primed:    rs.Primed,
		}
		r.index[rs.Device] = len(r.rings)
		r.rings = append(r.rings, ring)
	}
	return nil
}

// Devices returns the probed device names in registration order.
func (r *ProbeRecorder) Devices() []string {
	out := make([]string, len(r.rings))
	for i, ring := range r.rings {
		out[i] = ring.device
	}
	return out
}

// Dropped returns how many samples ring overflow discarded across all
// devices.
func (r *ProbeRecorder) Dropped() int64 {
	var n int64
	for _, ring := range r.rings {
		n += ring.dropped
	}
	return n
}

// Samples returns the retained samples, devices in registration order and
// each device's samples in time order (oldest surviving first).
func (r *ProbeRecorder) Samples() []ProbeSample {
	var out []ProbeSample
	for _, ring := range r.rings {
		out = append(out, ring.ordered()...)
	}
	return out
}

// DeviceSamples returns the retained samples of one device in time order.
func (r *ProbeRecorder) DeviceSamples(device string) []ProbeSample {
	i, ok := r.index[device]
	if !ok {
		return nil
	}
	return r.rings[i].ordered()
}

// ordered unwraps the ring into oldest-first order.
func (ring *probeRing) ordered() []ProbeSample {
	if ring.dropped == 0 {
		return append([]ProbeSample(nil), ring.samples...)
	}
	out := append([]ProbeSample(nil), ring.samples[ring.next:]...)
	return append(out, ring.samples[:ring.next]...)
}

// WriteProbesJSONL writes samples one JSON object per line.
func WriteProbesJSONL(w io.Writer, samples []ProbeSample) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range samples {
		if err := enc.Encode(s); err != nil {
			return fmt.Errorf("obs: write probes: %w", err)
		}
	}
	return bw.Flush()
}

// ReadProbes parses a JSONL stream written by WriteProbesJSONL.
func ReadProbes(r io.Reader) ([]ProbeSample, error) {
	var out []ProbeSample
	dec := json.NewDecoder(r)
	for {
		var s ProbeSample
		if err := dec.Decode(&s); err == io.EOF {
			return out, nil
		} else if err != nil {
			return out, fmt.Errorf("obs: read probes: %w", err)
		}
		out = append(out, s)
	}
}
