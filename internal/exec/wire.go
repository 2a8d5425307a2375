package exec

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
)

// The wire protocol shared by the pool (stdio) and remote (TCP)
// backends. Every message is one frame — a 4-byte big-endian payload
// length followed by that many payload bytes — so framing survives any
// stream transport and a reader can reject oversized or torn messages
// before parsing.
//
// There is one protocol version, protoVersion. Its payloads come in
// two encodings, told apart by the first payload byte:
//
//   - JSON control frames (first byte '{'): the hello exchange and the
//     "funcs" method. Both ends send their version in the hello; a peer
//     speaking any other version is refused at connection setup (the
//     client fails with ProtoMismatchError, the worker answers with an
//     in-band error), never mid-campaign.
//
//	client → worker: {"id":1,"method":"hello","proto":3}
//	worker → client: {"id":1,"hello":{"proto":3,"capacity":4,"systems":[...],"images":{...}}}
//	client → worker: {"id":2,"method":"funcs","system":"minidb"}
//	worker → client: {"id":2,"funcs":{...}}
//
//   - binary frames (first byte 0xB2) for the hot path: run requests,
//     run responses — varint batch header, per-connection block-universe
//     table, bitset coverage, per-response string table — and cancel
//     frames (see wire2.go for the grammar).
//
// On top of the encodings sit the service semantics:
//
//   - a **cancel** frame names an in-flight run request by id; the
//     worker stops starting new runs, finishes the ones in flight, and
//     answers the cancelled request with its completed prefix, so a
//     drain takes one frame round-trip (the 30s grace only guards
//     wedged workers);
//   - requests are **pipelined**: a worker reads the next run request
//     while executing the current one (batches still execute in FIFO
//     order per connection, preserving determinism), and responses
//     carry ids so a client can keep several batches in flight;
//   - the hello response advertises per-system **image versions** and
//     "funcs" serves per-function fingerprints, so a client can detect
//     a mixed-build worker and reconcile its outcomes through the
//     store's migration machinery instead of dropping them.
//
// A batch's scenarios travel as canonical XML (scenario.Serialize is
// byte-deterministic), so content hashes — and therefore store keys —
// mean the same thing on both ends. Errors come back in-band on the
// response's error field; transport failures surface as BackendError.

// protoVersion is the one wire protocol this build speaks; a hello
// advertising any other version is rejected at connection setup.
const protoVersion = 3

// maxFrame bounds one message (a batch of a few hundred scenarios is
// well under 1 MiB; 64 MiB rejects garbage and runaway peers).
const maxFrame = 64 << 20

// request is a JSON control frame: hello or funcs.
type request struct {
	ID     uint64 `json:"id"`
	Method string `json:"method"`
	// Proto is the client's protocol version, sent with hello.
	Proto int `json:"proto,omitempty"`
	// System parametrizes the "funcs" method.
	System string `json:"system,omitempty"`
}

// response is any frame a worker answers with: the JSON control
// responses, and the decoded form of a binary run response.
type response struct {
	ID       uint64     `json:"id"`
	Error    string     `json:"error,omitempty"`
	Hello    *helloInfo `json:"hello,omitempty"`
	Outcomes []*Outcome `json:"-"` // binary run responses only
	// Funcs answers a "funcs" request: the worker's per-function
	// fingerprints for one system.
	Funcs map[string]string `json:"funcs,omitempty"`
}

type helloInfo struct {
	Proto    int      `json:"proto"`
	Capacity int      `json:"capacity"`
	Systems  []string `json:"systems"`
	// Images maps each advertised system to the image version the
	// worker would execute it as — the mixed-build handshake: a client
	// whose own image differs reconciles this worker's outcomes
	// instead of trusting them blindly.
	Images map[string]string `json:"images,omitempty"`
}

// writeRawFrame writes one length-prefixed frame.
func writeRawFrame(w io.Writer, data []byte) error {
	if len(data) > maxFrame {
		return fmt.Errorf("exec: frame too large: %d bytes", len(data))
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(data)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(data)
	return err
}

// readRawFrame reads one length-prefixed frame's payload.
func readRawFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > maxFrame {
		return nil, fmt.Errorf("exec: frame too large: %d bytes", n)
	}
	data := make([]byte, n)
	if _, err := io.ReadFull(r, data); err != nil {
		return nil, err
	}
	return data, nil
}

// writeFrame marshals v as JSON and writes one frame.
func writeFrame(w io.Writer, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("exec: marshal: %w", err)
	}
	return writeRawFrame(w, data)
}

// readFrame reads one frame and unmarshals its JSON payload into v.
func readFrame(r io.Reader, v any) error {
	data, err := readRawFrame(r)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("exec: unmarshal: %w", err)
	}
	return nil
}
