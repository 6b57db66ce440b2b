package obs

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"strings"
	"sync"
)

// CheckpointVersion is the schema version stamped into every record; a
// reader that sees a higher version must refuse to restore from it.
// Version history:
//
//	v1 — full-state records only.
//	v2 — adds delta records: State may carry only the suffix grown since
//	     the previous record for append-only series (paired "<key>@base"
//	     fields hold the splice offsets) and only the changed elements of
//	     keyed collections (paired "<key>@mergekey" fields name the
//	     identity field, "<key>@drop" lists removed identities), with a
//	     full keyframe every DefaultKeyframeEvery records. Readers accept
//	     both versions, and mixed v1/v2 chains (a pre-upgrade capture
//	     resumed post-upgrade) validate and materialize normally.
const CheckpointVersion = 2

// checkpointMinVersion is the oldest schema readers still accept.
const checkpointMinVersion = 1

// DefaultKeyframeEvery is the keyframe cadence for delta-encoded chains:
// record indices divisible by it carry full state, so any record
// materializes by scanning back at most DefaultKeyframeEvery-1 records —
// seeking stays O(1) in the chain length.
const DefaultKeyframeEvery = 8

// CheckpointRecord is one flight-recorder snapshot: the serialized
// simulation state at a slot boundary, hash-chained to its predecessor so
// a checkpoint file is tamper- and truncation-evident and two runs can be
// bisected by comparing chains. Records are written to checkpoints.jsonl.
//
// The hash covers everything except Run: the run key is stamped late (by
// obs.Capture.Contribute, like events and decisions), so it must not
// participate in the chain.
type CheckpointRecord struct {
	// V is the schema version (CheckpointVersion).
	V int `json:"v"`
	// Run labels the originating run in multi-run artifacts.
	Run string `json:"run,omitempty"`
	// Slot is the number of completed control slots at snapshot time; it
	// is strictly increasing within a run's chain.
	Slot int `json:"slot"`
	// Step is the number of executed engine steps (the snapshot is taken
	// at the slot boundary before step Step executes).
	Step int `json:"step"`
	// Seconds is the simulation time of the snapshot.
	Seconds float64 `json:"t"`
	// State is the serialized simulation state (engine + obs sinks). In a
	// delta record (v2), append-only series inside it carry only their
	// suffix beyond the previous record, tagged by "<key>@base" offsets;
	// MaterializeAt reconstructs the full state.
	State json.RawMessage `json:"state"`
	// Delta marks a v2 record whose State is encoded against the previous
	// record of the same run. The first record of a chain is never a delta.
	Delta bool `json:"delta,omitempty"`
	// Prev is the previous record's Hash ("" for the first record).
	Prev string `json:"prev,omitempty"`
	// Hash chains V, Slot, Step, Seconds, Delta (v2+), Prev and State.
	Hash string `json:"hash"`
}

// crc32c is the Castagnoli table, hardware-accelerated on amd64/arm64.
var crc32c = crc32.MakeTable(crc32.Castagnoli)

// HashCheckpoint computes the record's chain hash from its own fields
// (ignoring the stored Hash and the late-stamped Run label). v1 records
// keep the original preimage layout so pre-upgrade chains still verify.
// In v2 the state payload contributes through its length and a CRC-32C
// digest rather than being fed through SHA-256 whole: the chain hash
// still pins ordering and every payload byte, but the emission path
// pays a hardware CRC over the record instead of a full cryptographic
// hash — about a tenth of the cost on the slot boundary.
func HashCheckpoint(r CheckpointRecord) string {
	h := sha256.New()
	if r.V >= 2 {
		fmt.Fprintf(h, "v=%d|slot=%d|step=%d|t=%g|delta=%t|prev=%s|len=%d|crc=%08x",
			r.V, r.Slot, r.Step, r.Seconds, r.Delta, r.Prev, len(r.State), crc32.Checksum(r.State, crc32c))
	} else {
		fmt.Fprintf(h, "v=%d|slot=%d|step=%d|t=%g|prev=%s|", r.V, r.Slot, r.Step, r.Seconds, r.Prev)
		h.Write(r.State)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// CheckpointLog accumulates one run's hash-chained checkpoint records.
// Safe for concurrent use (each run owns its own log, but a shared sink
// may flush while the engine appends).
type CheckpointLog struct {
	mu      sync.Mutex
	records []CheckpointRecord
	prev    string
}

// NewCheckpointLog builds an empty log.
func NewCheckpointLog() *CheckpointLog { return &CheckpointLog{} }

// Seed preloads a previously captured chain so a resumed run's log starts
// where the interrupted run left off: the carried records reappear in
// Records() (keeping the written artifact byte-identical to an
// uninterrupted run) and new appends chain off the last carried hash.
func (l *CheckpointLog) Seed(records []CheckpointRecord) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.records = append([]CheckpointRecord(nil), records...)
	if n := len(l.records); n > 0 {
		l.prev = l.records[n-1].Hash
	}
}

// Append chains and stores one snapshot, returning the finished record.
// delta marks the state as encoded against the previous record; it must
// be false when the log is empty (a chain's first record is a keyframe).
func (l *CheckpointLog) Append(slot, step int, seconds float64, state json.RawMessage, delta bool) CheckpointRecord {
	return l.AppendOwned(slot, step, seconds, append(json.RawMessage(nil), state...), delta)
}

// AppendOwned is Append for a caller that hands over ownership of state:
// the log stores the slice as-is instead of copying it. The caller must
// not reuse or mutate the buffer afterwards.
func (l *CheckpointLog) AppendOwned(slot, step int, seconds float64, state json.RawMessage, delta bool) CheckpointRecord {
	rec := CheckpointRecord{
		V:       CheckpointVersion,
		Slot:    slot,
		Step:    step,
		Seconds: seconds,
		State:   state,
		Delta:   delta,
	}
	l.mu.Lock()
	rec.Prev = l.prev
	rec.Hash = HashCheckpoint(rec)
	l.prev = rec.Hash
	l.records = append(l.records, rec)
	l.mu.Unlock()
	return rec
}

// NextIsDelta reports whether the log's next append should be a delta
// under the keyframe cadence: every record whose chain index is divisible
// by every is a keyframe, everything between is a delta. The cadence is a
// function of chain position alone, so a resumed log (seeded with the
// interrupted run's records) continues the exact sequence an
// uninterrupted run would have produced.
func (l *CheckpointLog) NextIsDelta(every int) bool {
	if every <= 1 {
		return false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.records)%every != 0
}

// Len returns the number of stored records.
func (l *CheckpointLog) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.records)
}

// Records returns a copy of the stored records in chain order.
func (l *CheckpointLog) Records() []CheckpointRecord {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]CheckpointRecord(nil), l.records...)
}

// WriteCheckpointsJSONL writes records one JSON object per line.
func WriteCheckpointsJSONL(w io.Writer, records []CheckpointRecord) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, r := range records {
		if err := enc.Encode(r); err != nil {
			return fmt.Errorf("obs: write checkpoints: %w", err)
		}
	}
	return bw.Flush()
}

// ReadCheckpoints parses a JSONL stream written by WriteCheckpointsJSONL.
//
// It reads one line at a time. A line in the exact layout
// WriteCheckpointsJSONL emits (see canonicalCheckpoint) is parsed in one
// scan of its state payload. From the first line of any other shape on,
// the rest of the stream goes through json.Decoder, so the reader accepts
// and rejects exactly the streams a json.Decoder loop does, and returns
// the same records.
func ReadCheckpoints(r io.Reader) ([]CheckpointRecord, error) {
	var out []CheckpointRecord
	br := bufio.NewReaderSize(r, 64<<10)
	var line []byte
	for {
		var err error
		line, err = readLine(br, line[:0])
		if err == nil {
			if rec, ok := canonicalCheckpoint(line); ok {
				out = append(out, rec)
				continue
			}
		}
		if err == io.EOF && len(line) == 0 {
			return out, nil
		}
		// Hand the decoder this line and everything after it, ending the
		// way the stream ended.
		rest := io.Reader(br)
		if err != nil {
			rest = errReader{err}
		}
		return decodeCheckpoints(out, io.MultiReader(bytes.NewReader(line), rest))
	}
}

// decodeCheckpoints appends the records json.Decoder reads from r to out.
func decodeCheckpoints(out []CheckpointRecord, r io.Reader) ([]CheckpointRecord, error) {
	dec := json.NewDecoder(r)
	for {
		var rec CheckpointRecord
		if err := dec.Decode(&rec); err == io.EOF {
			return out, nil
		} else if err != nil {
			return out, fmt.Errorf("obs: read checkpoints: %w", err)
		}
		out = append(out, rec)
	}
}

// readLine appends br's next line, newline included, to buf. The error is
// the one that ended a line without a newline, as bufio.Reader.ReadSlice
// reports it.
func readLine(br *bufio.Reader, buf []byte) ([]byte, error) {
	for {
		frag, err := br.ReadSlice('\n')
		buf = append(buf, frag...)
		if err != bufio.ErrBufferFull {
			return buf, err
		}
	}
}

// errReader returns err from every Read.
type errReader struct{ err error }

func (r errReader) Read([]byte) (int, error) { return 0, r.err }

// canonicalCheckpoint parses line if it is one record, newline-terminated,
// in the layout json.Encoder gives a CheckpointRecord:
//
//	{"v":N[,"run":S],"slot":N,"step":N,"t":N,"state":X[,"delta":true][,"prev":S],"hash":S}
//
// with no whitespace between tokens. The state X is checked once with
// json.Valid and copied; the header around it is decoded by json.Unmarshal
// with X replaced by 0. For any other line, or a header Unmarshal rejects,
// it reports false and leaves the line to json.Decoder.
//
// Both ends are found without scanning the state: the header forward, the
// tail backward from the closing brace. The backward scan accepts tail
// strings only without '"' or '\\', so each quote it finds delimits a
// string. A misplaced cut cannot pass: a single JSON value never ends in
// an unescaped `,"prev":"S"` or `,"delta":true`, so a wrong cut leaves a
// state that json.Valid rejects.
func canonicalCheckpoint(line []byte) (CheckpointRecord, bool) {
	var rec CheckpointRecord
	n := len(line)
	if n < 2 || line[n-1] != '\n' {
		return rec, false
	}
	body := line[:n-1]
	p, ok := canonicalHead(body)
	if !ok {
		return rec, false
	}
	q, ok := canonicalTail(body)
	if !ok || q <= p {
		return rec, false
	}
	state := body[p:q]
	if isJSONSpace(state[0]) || isJSONSpace(state[len(state)-1]) || !json.Valid(state) {
		return rec, false
	}
	hdr := make([]byte, 0, len(body)-len(state)+1)
	hdr = append(append(append(hdr, body[:p]...), '0'), body[q:]...)
	if err := json.Unmarshal(hdr, &rec); err != nil {
		return rec, false
	}
	rec.State = append(json.RawMessage(nil), state...)
	return rec, true
}

// canonicalHead matches `{"v":N[,"run":S],"slot":N,"step":N,"t":N,"state":`
// at the start of b and returns the offset just past it. Numbers and the
// run string are only delimited here; json.Unmarshal validates them.
func canonicalHead(b []byte) (int, bool) {
	p, ok := skipLiteral(b, 0, `{"v":`)
	if p, ok = skipNumber(b, p, ok); !ok {
		return 0, false
	}
	if q, ok := skipLiteral(b, p, `,"run":`); ok {
		if p, ok = skipString(b, q); !ok {
			return 0, false
		}
	}
	for _, key := range []string{`,"slot":`, `,"step":`, `,"t":`} {
		p, ok = skipLiteral(b, p, key)
		if p, ok = skipNumber(b, p, ok); !ok {
			return 0, false
		}
	}
	return skipLiteral(b, p, `,"state":`)
}

// canonicalTail matches `[,"delta":true][,"prev":S],"hash":S}` at the end
// of b, scanning backward, and returns the offset where it starts.
func canonicalTail(b []byte) (int, bool) {
	if !bytes.HasSuffix(b, []byte(`"}`)) {
		return 0, false
	}
	q, ok := backString(b, len(b)-1, `,"hash":`)
	if !ok {
		return 0, false
	}
	if p, ok := backString(b, q, `,"prev":`); ok {
		q = p
	}
	if bytes.HasSuffix(b[:q], []byte(`,"delta":true`)) {
		q -= len(`,"delta":true`)
	}
	return q, true
}

// backString matches key followed by a string without '"' or '\\' that
// ends just before b[end], and returns the offset of key.
func backString(b []byte, end int, key string) (int, bool) {
	if end < 2 || b[end-1] != '"' {
		return 0, false
	}
	open := bytes.LastIndexByte(b[:end-1], '"')
	if open < 0 || bytes.IndexByte(b[open+1:end-1], '\\') >= 0 {
		return 0, false
	}
	if !bytes.HasSuffix(b[:open], []byte(key)) {
		return 0, false
	}
	return open - len(key), true
}

// skipLiteral matches lit at b[p:] when ok.
func skipLiteral(b []byte, p int, lit string) (int, bool) {
	if !bytes.HasPrefix(b[p:], []byte(lit)) {
		return p, false
	}
	return p + len(lit), true
}

// skipNumber delimits a run of number characters at b[p:] when ok.
func skipNumber(b []byte, p int, ok bool) (int, bool) {
	if !ok {
		return p, false
	}
	q := p
	for q < len(b) && strings.IndexByte("0123456789-+.eE", b[q]) >= 0 {
		q++
	}
	return q, q > p
}

// skipString delimits the JSON string starting at b[p].
func skipString(b []byte, p int) (int, bool) {
	if p >= len(b) || b[p] != '"' {
		return p, false
	}
	for i := p + 1; i < len(b); i++ {
		switch b[i] {
		case '\\':
			i++
		case '"':
			return i + 1, true
		}
	}
	return p, false
}

// isJSONSpace reports whether c is JSON insignificant whitespace.
func isJSONSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

// ValidateCheckpoints checks a checkpoint stream's structural invariants,
// per run label: known schema version, strictly increasing slot index,
// intact prev links and recomputable hashes. Records of different runs may
// interleave arbitrarily (a multi-run capture concatenates sorted runs).
func ValidateCheckpoints(records []CheckpointRecord) error {
	type chainState struct {
		prev     string
		lastSlot int
		started  bool
	}
	chains := make(map[string]*chainState)
	for i, r := range records {
		if r.V < checkpointMinVersion || r.V > CheckpointVersion {
			return fmt.Errorf("obs: checkpoint %d: unknown schema version %d (want %d..%d)", i, r.V, checkpointMinVersion, CheckpointVersion)
		}
		if r.Delta && r.V < 2 {
			return fmt.Errorf("obs: checkpoint %d: delta record under schema version %d (deltas need v2)", i, r.V)
		}
		c := chains[r.Run]
		if c == nil {
			c = &chainState{}
			chains[r.Run] = c
		}
		if r.Delta && !c.started {
			return fmt.Errorf("obs: checkpoint %d: delta record opens run %q chain (first record must be a keyframe)", i, r.Run)
		}
		if c.started && r.Slot <= c.lastSlot {
			return fmt.Errorf("obs: checkpoint %d: slot %d not above previous slot %d", i, r.Slot, c.lastSlot)
		}
		if r.Prev != c.prev {
			return fmt.Errorf("obs: checkpoint %d (slot %d): broken chain: prev %.12s != expected %.12s", i, r.Slot, r.Prev, c.prev)
		}
		if got := HashCheckpoint(r); got != r.Hash {
			return fmt.Errorf("obs: checkpoint %d (slot %d): hash mismatch: stored %.12s, computed %.12s", i, r.Slot, r.Hash, got)
		}
		c.prev = r.Hash
		c.lastSlot = r.Slot
		c.started = true
	}
	return nil
}

// MaterializeAt returns the full simulation state of records[i],
// reconstructing delta records by splicing them onto the nearest preceding
// keyframe of the same run. The scan walks back at most the keyframe
// cadence, so a seek costs O(keyframe distance) records regardless of
// chain length. A keyframe's state is returned as stored (byte-identical);
// a delta's is re-marshaled from the spliced document.
func MaterializeAt(records []CheckpointRecord, i int) (json.RawMessage, error) {
	if i < 0 || i >= len(records) {
		return nil, fmt.Errorf("obs: materialize checkpoint %d of %d", i, len(records))
	}
	if !records[i].Delta {
		return records[i].State, nil
	}
	run := records[i].Run
	// Collect the delta chain back to its keyframe, same-run records only.
	var chain []int
	key := -1
	for j := i; j >= 0; j-- {
		if records[j].Run != run {
			continue
		}
		if !records[j].Delta {
			key = j
			break
		}
		chain = append(chain, j)
	}
	if key < 0 {
		return nil, fmt.Errorf("obs: checkpoint %d (run %q): delta chain has no keyframe", i, run)
	}
	var state map[string]any
	if err := json.Unmarshal(records[key].State, &state); err != nil {
		return nil, fmt.Errorf("obs: checkpoint %d: decode keyframe state: %w", key, err)
	}
	for j := len(chain) - 1; j >= 0; j-- {
		var delta map[string]any
		if err := json.Unmarshal(records[chain[j]].State, &delta); err != nil {
			return nil, fmt.Errorf("obs: checkpoint %d: decode delta state: %w", chain[j], err)
		}
		spliced, err := spliceCheckpointDelta(state, delta)
		if err != nil {
			return nil, fmt.Errorf("obs: checkpoint %d: %w", chain[j], err)
		}
		state = spliced
	}
	out, err := json.Marshal(state)
	if err != nil {
		return nil, fmt.Errorf("obs: checkpoint %d: re-marshal state: %w", i, err)
	}
	return out, nil
}

// Delta-encoding companion suffixes. A key "<key>@base": N marks an
// append-only series: the materialized <key> is the previous state's
// first N elements followed by the delta's <key> value. A key
// "<key>@mergekey": "<field>" marks a keyed collection: the delta's
// <key> array carries only changed elements, identified by <field>, and
// an optional "<key>@drop": [...] lists the identities removed since the
// previous record.
const (
	deltaBaseSuffix  = "@base"
	deltaMergeSuffix = "@mergekey"
	deltaDropSuffix  = "@drop"
)

// isDeltaCompanion reports whether k is a companion key consumed
// alongside its primary key rather than materialized itself.
func isDeltaCompanion(k string) bool {
	return strings.HasSuffix(k, deltaBaseSuffix) ||
		strings.HasSuffix(k, deltaMergeSuffix) ||
		strings.HasSuffix(k, deltaDropSuffix)
}

// spliceCheckpointDelta materializes one delta document against the
// previous materialized state. The encoding is self-describing: a key
// carrying a "<key>@base" companion splices onto the previous array; a
// key carrying "<key>@mergekey" upserts into the previous array by
// element identity (dropping the "<key>@drop" identities first); nested
// objects recurse; every other key replaces the previous value
// wholesale, and keys absent from the delta are dropped.
func spliceCheckpointDelta(prev, delta map[string]any) (map[string]any, error) {
	out := make(map[string]any, len(delta))
	for k, v := range delta {
		if isDeltaCompanion(k) {
			continue // companion, consumed with its primary key
		}
		if mkAny, ok := delta[k+deltaMergeSuffix]; ok {
			merged, err := spliceKeyedMerge(k, prev[k], v, mkAny, delta[k+deltaDropSuffix])
			if err != nil {
				return nil, err
			}
			out[k] = merged
			continue
		}
		if baseAny, ok := delta[k+deltaBaseSuffix]; ok {
			baseF, ok := baseAny.(float64)
			if !ok {
				return nil, fmt.Errorf("splice %q: offset %v is not a number", k, baseAny)
			}
			base := int(baseF)
			var prevArr []any
			if pa, ok := prev[k].([]any); ok {
				prevArr = pa
			}
			if base > len(prevArr) {
				return nil, fmt.Errorf("splice %q: offset %d beyond previous length %d", k, base, len(prevArr))
			}
			suffix, ok := v.([]any)
			if !ok && v != nil {
				return nil, fmt.Errorf("splice %q: delta value is not an array", k)
			}
			merged := make([]any, 0, base+len(suffix))
			merged = append(merged, prevArr[:base]...)
			merged = append(merged, suffix...)
			out[k] = merged
			continue
		}
		if dm, ok := v.(map[string]any); ok {
			pm, _ := prev[k].(map[string]any)
			spliced, err := spliceCheckpointDelta(pm, dm)
			if err != nil {
				return nil, fmt.Errorf("%q.%w", k, err)
			}
			out[k] = spliced
			continue
		}
		out[k] = v
	}
	return out, nil
}

// spliceKeyedMerge materializes a keyed-collection delta: starting from
// the previous array with the dropped identities removed (order
// preserved), each delta element replaces the previous element of the
// same identity in place, or appends if its identity is new. Identity is
// the JSON encoding of the element's merge-key field, so struct-valued
// keys compare correctly.
func spliceKeyedMerge(k string, prevVal, deltaVal, mergeKey, dropVal any) ([]any, error) {
	field, ok := mergeKey.(string)
	if !ok || field == "" {
		return nil, fmt.Errorf("splice %q: merge key %v is not a non-empty string", k, mergeKey)
	}
	ident := func(el any) (string, error) {
		obj, ok := el.(map[string]any)
		if !ok {
			return "", fmt.Errorf("splice %q: element %v is not an object", k, el)
		}
		enc, err := json.Marshal(obj[field])
		if err != nil {
			return "", fmt.Errorf("splice %q: encode merge key: %w", k, err)
		}
		return string(enc), nil
	}
	dropSet := map[string]bool{}
	if dropVal != nil {
		drops, ok := dropVal.([]any)
		if !ok {
			return nil, fmt.Errorf("splice %q: drop list %v is not an array", k, dropVal)
		}
		for _, d := range drops {
			enc, err := json.Marshal(d)
			if err != nil {
				return nil, fmt.Errorf("splice %q: encode drop key: %w", k, err)
			}
			dropSet[string(enc)] = true
		}
	}
	var prevArr []any
	if pa, ok := prevVal.([]any); ok {
		prevArr = pa
	}
	upserts, ok := deltaVal.([]any)
	if !ok && deltaVal != nil {
		return nil, fmt.Errorf("splice %q: delta value is not an array", k)
	}
	merged := make([]any, 0, len(prevArr)+len(upserts))
	index := make(map[string]int, len(prevArr))
	for _, el := range prevArr {
		id, err := ident(el)
		if err != nil {
			return nil, err
		}
		if dropSet[id] {
			continue
		}
		index[id] = len(merged)
		merged = append(merged, el)
	}
	for _, el := range upserts {
		id, err := ident(el)
		if err != nil {
			return nil, err
		}
		if pos, ok := index[id]; ok {
			merged[pos] = el
			continue
		}
		index[id] = len(merged)
		merged = append(merged, el)
	}
	return merged, nil
}
