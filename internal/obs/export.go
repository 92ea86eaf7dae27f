package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"

	"repro/internal/sim"
)

// WriteJSONL writes events as one JSON object per line. The schema is
// fixed-width (every key always present) so downstream tooling can decode
// records without schema negotiation; ReadJSONL is the inverse:
//
//	{"t":<ns>,"dev":"<name>","port":<id>,"kind":"<Kind>","reason":"<Reason>",
//	 "pt":"<PacketType>","src":"<addr>","dst":"<addr>","sqp":<n>,"dqp":<n>,
//	 "psn":<n>,"msg":<n>,"a":<n>,"b":<n>}
//
// LP and Seq are deliberately omitted: LP is an execution artifact and Seq
// is recoverable from line order, so exports from sequential and partitioned
// runs of the same history are byte-identical.
func (r *Recorder) WriteJSONL(w io.Writer, evs []Event) error {
	bw := bufio.NewWriter(w)
	for i := range evs {
		e := &evs[i]
		_, err := fmt.Fprintf(bw,
			"{\"t\":%d,\"dev\":%q,\"port\":%d,\"kind\":%q,\"reason\":%q,\"pt\":%q,\"src\":%q,\"dst\":%q,\"sqp\":%d,\"dqp\":%d,\"psn\":%d,\"msg\":%d,\"a\":%d,\"b\":%d}\n",
			int64(e.At), r.DevName(e.Dev), e.Port, e.Kind.String(), e.Reason.String(),
			PktTypeName(e.PT), AddrString(e.Src), AddrString(e.Dst), e.SrcQP, e.DstQP, e.PSN, e.Msg, e.A, e.B)
		if err != nil {
			return err
		}
	}
	return bw.Flush()
}

// jsonlRecord is one WriteJSONL line as encoding/json decodes it.
type jsonlRecord struct {
	T      int64  `json:"t"`
	Dev    string `json:"dev"`
	Port   int    `json:"port"`
	Kind   string `json:"kind"`
	Reason string `json:"reason"`
	PT     string `json:"pt"`
	Src    string `json:"src"`
	Dst    string `json:"dst"`
	SQP    uint32 `json:"sqp"`
	DQP    uint32 `json:"dqp"`
	PSN    uint64 `json:"psn"`
	Msg    uint64 `json:"msg"`
	A      int64  `json:"a"`
	B      int64  `json:"b"`
}

// ReadJSONL parses a WriteJSONL export back into events. Device ids are
// assigned in first-seen order and names[id] is the device's name; the
// export is in canonical order, so the numbering is deterministic. Seq is
// the event's index in the file (the export drops the per-device Seq, and
// line order is the canonical order it encoded). Blank lines are skipped.
// Any line that WriteJSONL could not have written — malformed JSON, an
// unknown kind, reason or packet type, a bad address, a port outside int16,
// or a device name that is not printable ASCII — fails the whole read with
// its line number.
func ReadJSONL(r io.Reader) (evs []Event, names []string, err error) {
	ids := make(map[string]uint32)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	n := 0
	for sc.Scan() {
		n++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var l jsonlRecord
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			return nil, nil, fmt.Errorf("line %d: %v", n, err)
		}
		e := Event{At: sim.Time(l.T), Seq: uint32(len(evs)), SrcQP: l.SQP, DstQP: l.DQP,
			PSN: l.PSN, Msg: l.Msg, A: l.A, B: l.B}
		if err := l.decode(&e); err != nil {
			return nil, nil, fmt.Errorf("line %d: %v", n, err)
		}
		id, ok := ids[l.Dev]
		if !ok {
			id = uint32(len(names))
			ids[l.Dev] = id
			names = append(names, l.Dev)
		}
		e.Dev = id
		evs = append(evs, e)
	}
	if err := sc.Err(); err != nil {
		return nil, nil, fmt.Errorf("line %d: %v", n+1, err)
	}
	return evs, names, nil
}

// decode resolves the record's named fields into e.
func (l *jsonlRecord) decode(e *Event) error {
	// WriteJSONL quotes names with %q, which yields the same JSON string
	// only for printable ASCII.
	for i := 0; i < len(l.Dev); i++ {
		if c := l.Dev[i]; c < 0x20 || c > 0x7e {
			return fmt.Errorf("device name %q is not printable ASCII", l.Dev)
		}
	}
	if l.Port < math.MinInt16 || l.Port > math.MaxInt16 {
		return fmt.Errorf("port %d out of range", l.Port)
	}
	e.Port = int16(l.Port)
	var ok bool
	if e.Kind, ok = KindByName(l.Kind); !ok {
		return fmt.Errorf("unknown kind %q", l.Kind)
	}
	if l.Reason != "" {
		if e.Reason, ok = ReasonByName(l.Reason); !ok {
			return fmt.Errorf("unknown reason %q", l.Reason)
		}
	}
	if e.PT, ok = PktTypeByName(l.PT); !ok {
		return fmt.Errorf("unknown packet type %q", l.PT)
	}
	if e.Src, ok = ParseAddr(l.Src); !ok {
		return fmt.Errorf("bad src address %q", l.Src)
	}
	if e.Dst, ok = ParseAddr(l.Dst); !ok {
		return fmt.Errorf("bad dst address %q", l.Dst)
	}
	return nil
}
