package exec

import (
	"encoding/binary"
	"fmt"

	"lfi/internal/coverage"
	"lfi/internal/scenario"
)

// Binary payloads for the hot path: run requests, run responses and
// cancels. The frame layer (4-byte length prefix) is shared with the
// JSON control frames; a binary payload is recognized by its first
// byte:
//
//	payload := 0xB2 kind body
//	kind    := 0x01 (run request) | 0x02 (run response) | 0x03 (cancel)
//
// Run request body:
//
//	uvarint id
//	string  system                  (uvarint length + bytes)
//	varint  seed                    (zigzag)
//	byte    flags                   (bit0: coverage)
//	uvarint nscenarios
//	nscenarios × string             (canonical scenario XML)
//
// Run response body:
//
//	uvarint id
//	string  error                   ("" = ok)
//	uvarint universeTag             (0 = no coverage in this response)
//	if tag != 0:
//	  byte inline                   (1 = table follows, 0 = previously sent)
//	  if inline: uvarint n, n × string   (sorted block-ID universe)
//	uvarint nstrings, nstrings × string  (response string table)
//	uvarint noutcomes
//	noutcomes × outcome
//
// Outcome:
//
//	byte    flags                   (bit0 crashed, bit1 has coverage bitset)
//	ref     name                    (uvarint string-table index+1; 0 = "")
//	if crashed: uvarint kind, ref reason, uvarint thread
//	ref     workErr
//	ref     signature
//	uvarint injections
//	if coverage: uvarint nwords, nwords × 8-byte little-endian words
//
// The block-universe table is per connection: the worker sends it
// inline with the first coverage response and by tag afterwards, so
// steady-state responses carry coverage as a few dozen bitset bytes
// instead of a sorted []string of block IDs. The string table
// deduplicates repeated crash reasons and failure signatures within a
// response.

const (
	frameMagic     = 0xB2
	frameRunReq    = 0x01
	frameRunResp   = 0x02
	frameCancel    = 0x03
	outCrashed     = 1 << 0
	outHasCoverage = 1 << 1
	reqCoverage    = 1 << 0
)

// --- encoding ----------------------------------------------------------------

func appendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }
func appendVarint(b []byte, v int64) []byte   { return binary.AppendVarint(b, v) }

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// encodeRunRequest encodes a run request.
func encodeRunRequest(id uint64, b *Batch) []byte {
	out := []byte{frameMagic, frameRunReq}
	out = appendUvarint(out, id)
	out = appendString(out, b.System)
	out = appendVarint(out, b.Seed)
	var flags byte
	if b.Coverage {
		flags |= reqCoverage
	}
	out = append(out, flags)
	out = appendUvarint(out, uint64(len(b.Scenarios)))
	for _, s := range b.Scenarios {
		doc := s.Serialize()
		out = appendUvarint(out, uint64(len(doc)))
		out = append(out, doc...)
	}
	return out
}

// encodeCancel encodes a cancel frame naming an in-flight
// run request. Cancel has no response of its own: the cancelled run
// request answers with its completed prefix.
func encodeCancel(id uint64) []byte {
	out := []byte{frameMagic, frameCancel}
	return appendUvarint(out, id)
}

// frameID reads the request/response id every binary frame kind leads
// with, without decoding the rest — the server's read loop needs the
// id before the (potentially deferred) full decode.
func frameID(payload []byte) (uint64, error) {
	d := &bdec{data: payload, off: 2}
	id := d.uvarint()
	return id, d.err
}

// respEncoder assembles one run response's string table while encoding.
type respEncoder struct {
	strs map[string]uint64 // string -> table index
	tab  []string
}

func (e *respEncoder) ref(s string) uint64 {
	if s == "" {
		return 0
	}
	if i, ok := e.strs[s]; ok {
		return i + 1
	}
	if e.strs == nil {
		e.strs = make(map[string]uint64)
	}
	i := uint64(len(e.tab))
	e.strs[s] = i
	e.tab = append(e.tab, s)
	return i + 1
}

// encodeRunResponse encodes a run response. universeTag
// and inlineUniverse describe the coverage universe section: tag 0
// means no outcome in this response carries coverage.
func encodeRunResponse(id uint64, errStr string, outs []*Outcome, universeTag uint64, inlineUniverse []string) []byte {
	var enc respEncoder
	// Pre-encode outcomes so the string table is complete before it is
	// written; the body is assembled after the header.
	body := make([]byte, 0, 64*len(outs))
	body = appendUvarint(body, uint64(len(outs)))
	for _, o := range outs {
		var flags byte
		if o.Crashed {
			flags |= outCrashed
		}
		if o.CovU != nil {
			flags |= outHasCoverage
		}
		body = append(body, flags)
		body = appendUvarint(body, enc.ref(o.Name))
		if o.Crashed {
			body = appendUvarint(body, uint64(o.CrashKind))
			body = appendUvarint(body, enc.ref(o.CrashReason))
			body = appendUvarint(body, uint64(o.CrashThread))
		}
		body = appendUvarint(body, enc.ref(o.WorkErr))
		body = appendUvarint(body, enc.ref(o.Signature))
		body = appendUvarint(body, uint64(o.Injections))
		if o.CovU != nil {
			body = appendUvarint(body, uint64(len(o.Cov)))
			for _, w := range o.Cov {
				body = binary.LittleEndian.AppendUint64(body, w)
			}
		}
	}
	out := []byte{frameMagic, frameRunResp}
	out = appendUvarint(out, id)
	out = appendString(out, errStr)
	out = appendUvarint(out, universeTag)
	if universeTag != 0 {
		if inlineUniverse != nil {
			out = append(out, 1)
			out = appendUvarint(out, uint64(len(inlineUniverse)))
			for _, s := range inlineUniverse {
				out = appendString(out, s)
			}
		} else {
			out = append(out, 0)
		}
	}
	out = appendUvarint(out, uint64(len(enc.tab)))
	for _, s := range enc.tab {
		out = appendString(out, s)
	}
	return append(out, body...)
}

// --- decoding ----------------------------------------------------------------

// bdec is a cursor over one binary payload; the first error sticks.
type bdec struct {
	data []byte
	off  int
	err  error
}

func (d *bdec) fail() {
	if d.err == nil {
		d.err = fmt.Errorf("exec: truncated binary frame at offset %d", d.off)
	}
}

func (d *bdec) byte() byte {
	if d.err != nil || d.off >= len(d.data) {
		d.fail()
		return 0
	}
	b := d.data[d.off]
	d.off++
	return b
}

func (d *bdec) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.data[d.off:])
	if n <= 0 {
		d.fail()
		return 0
	}
	d.off += n
	return v
}

func (d *bdec) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.data[d.off:])
	if n <= 0 {
		d.fail()
		return 0
	}
	d.off += n
	return v
}

func (d *bdec) str() string {
	n := d.uvarint()
	if d.err != nil || n > uint64(len(d.data)-d.off) {
		d.fail()
		return ""
	}
	s := string(d.data[d.off : d.off+int(n)])
	d.off += int(n)
	return s
}

// isBinaryFrame reports whether a payload is a binary frame
// of the given kind.
func isBinaryFrame(payload []byte, kind byte) bool {
	return len(payload) >= 2 && payload[0] == frameMagic && payload[1] == kind
}

// decodeRunRequest parses a binary run request. parse resolves one
// canonical XML document to a scenario (the server memoizes it so
// repeated batches share scenario — and therefore compiled-program —
// identity).
func decodeRunRequest(payload []byte, parse func(string) (*scenario.Scenario, error)) (id uint64, b *Batch, err error) {
	d := &bdec{data: payload, off: 2}
	id = d.uvarint()
	b = &Batch{System: d.str(), Seed: d.varint()}
	flags := d.byte()
	b.Coverage = flags&reqCoverage != 0
	n := d.uvarint()
	if d.err != nil {
		return id, nil, d.err
	}
	if n > uint64(len(payload)) { // cheap sanity bound before allocating
		return id, nil, fmt.Errorf("exec: binary frame: %d scenarios in %d-byte payload", n, len(payload))
	}
	b.Scenarios = make([]*scenario.Scenario, 0, n)
	for i := uint64(0); i < n; i++ {
		doc := d.str()
		if d.err != nil {
			return id, nil, d.err
		}
		s, perr := parse(doc)
		if perr != nil {
			return id, nil, fmt.Errorf("exec: batch scenario %d: %w", i, perr)
		}
		b.Scenarios = append(b.Scenarios, s)
	}
	return id, b, d.err
}

// decodeRunResponse parses a binary run response. universes is the
// client's per-connection tag → universe cache; an inline table
// populates it, a bare tag must already be present.
func decodeRunResponse(payload []byte, resp *response, universes map[uint64]*coverage.Index) error {
	d := &bdec{data: payload, off: 2}
	resp.ID = d.uvarint()
	resp.Error = d.str()
	resp.Hello = nil
	resp.Outcomes = nil
	var idx *coverage.Index
	if tag := d.uvarint(); tag != 0 {
		if inline := d.byte(); inline == 1 {
			n := d.uvarint()
			if d.err != nil || n > uint64(len(payload)) {
				d.fail()
				return d.err
			}
			ids := make([]string, 0, n)
			for i := uint64(0); i < n; i++ {
				ids = append(ids, d.str())
			}
			if d.err != nil {
				return d.err
			}
			idx = coverage.NewIndex(ids)
			universes[tag] = idx
		} else {
			var ok bool
			if idx, ok = universes[tag]; !ok {
				return fmt.Errorf("exec: binary frame references unknown universe %d", tag)
			}
		}
	}
	nstr := d.uvarint()
	if d.err != nil || nstr > uint64(len(payload)) {
		d.fail()
		return d.err
	}
	tab := make([]string, 0, nstr)
	for i := uint64(0); i < nstr; i++ {
		tab = append(tab, d.str())
	}
	ref := func() string {
		i := d.uvarint()
		if i == 0 {
			return ""
		}
		if i > uint64(len(tab)) {
			d.fail()
			return ""
		}
		return tab[i-1]
	}
	n := d.uvarint()
	if d.err != nil || n > uint64(len(payload)) {
		d.fail()
		return d.err
	}
	resp.Outcomes = make([]*Outcome, 0, n)
	for i := uint64(0); i < n; i++ {
		o := newOutcome() // pooled; the consumer hands it back via Recycle
		flags := d.byte()
		o.Crashed = flags&outCrashed != 0
		o.Name = ref()
		if o.Crashed {
			o.CrashKind = int(d.uvarint())
			o.CrashReason = ref()
			o.CrashThread = int(d.uvarint())
		}
		o.WorkErr = ref()
		o.Signature = ref()
		o.Injections = int(d.uvarint())
		if flags&outHasCoverage != 0 {
			if idx == nil {
				return fmt.Errorf("exec: binary frame: outcome coverage without universe")
			}
			nw := d.uvarint()
			// Divide, don't multiply: nw*8 can wrap for a hostile varint.
			if d.err != nil || nw > uint64(len(d.data)-d.off)/8 {
				d.fail()
				return d.err
			}
			if uint64(cap(o.Cov)) >= nw {
				o.Cov = o.Cov[:nw]
			} else {
				o.Cov = make(coverage.Bitset, nw)
			}
			for w := uint64(0); w < nw; w++ {
				o.Cov[w] = binary.LittleEndian.Uint64(d.data[d.off:])
				d.off += 8
			}
			o.CovU = idx
		}
		if d.err != nil {
			return d.err
		}
		resp.Outcomes = append(resp.Outcomes, o)
	}
	return d.err
}
