package server

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"
	"unicode/utf8"

	"road"
	"road/internal/obs"
)

// The hot responses (/knn, /within, /path, /maintenance/*) are encoded
// by the append functions below instead of by encoding/json's
// reflection. Their bytes are exactly what json.NewEncoder(w).Encode
// writes for the same wire struct — key order, omitempty, float and
// string formatting and the trailing newline — which
// TestResponseEncodingMatchesEncodingJSON and FuzzResponseEncoding
// referee. A /knn or /within body is three pieces: the per-request head
// (node, id, epoch, cached), the answer fragment `"results":[…],
// "stats":{…}` that the result cache stores encoded, and the per-request
// tail (elapsed_us, trace).

// appendQueryHead writes a QueryResponse's fields before its results:
// `{"node":N,"id":"…","epoch":E,"cached":B,`.
func appendQueryHead(dst []byte, node road.NodeID, id string, epoch uint64, cached bool) []byte {
	dst = append(dst, `{"node":`...)
	dst = strconv.AppendInt(dst, int64(node), 10)
	if id != "" {
		dst = append(dst, `,"id":`...)
		dst = appendString(dst, id)
	}
	dst = append(dst, `,"epoch":`...)
	dst = strconv.AppendUint(dst, epoch, 10)
	dst = append(dst, `,"cached":`...)
	dst = strconv.AppendBool(dst, cached)
	return append(dst, ',')
}

// appendAnswer writes a query answer as the `"results":[…],"stats":{…}`
// fragment of a QueryResponse. A nil answer encodes as an empty list, as
// the handlers always sent it. It fails on a non-finite distance or
// offset, which JSON cannot carry.
func appendAnswer(dst []byte, res []road.Result, st road.Stats) ([]byte, error) {
	dst = append(dst, `"results":[`...)
	for i, r := range res {
		if i > 0 {
			dst = append(dst, ',')
		}
		var err error
		if dst, err = appendResult(dst, resultJSON(r)); err != nil {
			return dst, err
		}
	}
	dst = append(dst, `],"stats":`...)
	return appendStats(dst, statsJSON(st)), nil
}

// appendQueryTail closes a QueryResponse after its answer fragment:
// `,"elapsed_us":N[,"trace":[…]]}` and the encoder's newline.
func appendQueryTail(dst []byte, elapsedUS int64, trace []obs.Leg) ([]byte, error) {
	dst = append(dst, `,"elapsed_us":`...)
	dst = strconv.AppendInt(dst, elapsedUS, 10)
	dst, err := appendTrace(dst, trace)
	return append(dst, "}\n"...), err
}

// appendPathResponse encodes a whole PathResponse. A nil path encodes as
// null, an empty one as [].
func appendPathResponse(dst []byte, r *PathResponse) ([]byte, error) {
	dst = append(dst, `{"node":`...)
	dst = strconv.AppendInt(dst, int64(r.Node), 10)
	if r.ID != "" {
		dst = append(dst, `,"id":`...)
		dst = appendString(dst, r.ID)
	}
	dst = append(dst, `,"object":`...)
	dst = strconv.AppendInt(dst, int64(r.Object), 10)
	dst = append(dst, `,"epoch":`...)
	dst = strconv.AppendUint(dst, r.Epoch, 10)
	dst = append(dst, `,"dist":`...)
	dst, err := appendFloat(dst, r.Dist)
	if err != nil {
		return dst, err
	}
	dst = append(dst, `,"path":`...)
	if r.Path == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, n := range r.Path {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendInt(dst, int64(n), 10)
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `,"stats":`...)
	dst = appendStats(dst, r.Stats)
	dst = append(dst, `,"elapsed_us":`...)
	dst = strconv.AppendInt(dst, r.ElapsedUS, 10)
	dst, err = appendTrace(dst, r.Trace)
	return append(dst, "}\n"...), err
}

// appendMaintenanceResponse encodes a mutation acknowledgement.
func appendMaintenanceResponse(dst []byte, r *MaintenanceResponse) []byte {
	dst = append(dst, `{"ok":`...)
	dst = strconv.AppendBool(dst, r.OK)
	dst = append(dst, `,"epoch":`...)
	dst = strconv.AppendUint(dst, r.Epoch, 10)
	dst = append(dst, `,"edge":`...)
	dst = strconv.AppendInt(dst, int64(r.Edge), 10)
	dst = append(dst, `,"object":`...)
	dst = strconv.AppendInt(dst, int64(r.Object), 10)
	return append(dst, "}\n"...)
}

func appendResult(dst []byte, r ResultJSON) ([]byte, error) {
	dst = append(dst, `{"object":`...)
	dst = strconv.AppendInt(dst, int64(r.Object), 10)
	dst = append(dst, `,"edge":`...)
	dst = strconv.AppendInt(dst, int64(r.Edge), 10)
	dst = append(dst, `,"attr":`...)
	dst = strconv.AppendInt(dst, int64(r.Attr), 10)
	dst = append(dst, `,"offset":`...)
	dst, err := appendFloat(dst, r.Offset)
	if err != nil {
		return dst, err
	}
	dst = append(dst, `,"dist":`...)
	if dst, err = appendFloat(dst, r.Dist); err != nil {
		return dst, err
	}
	return append(dst, '}'), nil
}

// appendStats follows StatsJSON's tags: the first three counters always,
// the rest only when non-zero.
func appendStats(dst []byte, st StatsJSON) []byte {
	dst = append(dst, `{"nodes_popped":`...)
	dst = strconv.AppendInt(dst, int64(st.NodesPopped), 10)
	dst = append(dst, `,"rnets_bypassed":`...)
	dst = strconv.AppendInt(dst, int64(st.RnetsBypassed), 10)
	dst = append(dst, `,"rnets_descended":`...)
	dst = strconv.AppendInt(dst, int64(st.RnetsDescended), 10)
	if st.ShardsSearched != 0 {
		dst = append(dst, `,"shards_searched":`...)
		dst = strconv.AppendInt(dst, int64(st.ShardsSearched), 10)
	}
	if st.Truncated {
		dst = append(dst, `,"truncated":true`...)
	}
	return append(dst, '}')
}

// appendTrace writes the optional `,"trace":[…]` member. Traced requests
// are uncached and rare, so the legs go through encoding/json.
func appendTrace(dst []byte, trace []obs.Leg) ([]byte, error) {
	if len(trace) == 0 {
		return dst, nil
	}
	b, err := json.Marshal(trace)
	if err != nil {
		return dst, err
	}
	dst = append(dst, `,"trace":`...)
	return append(dst, b...), nil
}

// appendFloat formats f as encoding/json does: like strconv's shortest
// 'f' form, switching to 'e' below 1e-6 and from 1e21 on, with a
// one-digit negative exponent left unpadded (1e-7, not 1e-07).
func appendFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, fmt.Errorf("json: unsupported value: %v", f)
	}
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}

const hexDigits = "0123456789abcdef"

// appendString quotes s as encoding/json does with its default HTML
// escaping: control characters, <, > and & become \u escapes, invalid
// UTF-8 becomes \ufffd, and U+2028/U+2029 are escaped.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			i += size
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// bodyPool recycles response buffers; a body is copied into the
// connection's writer before its buffer goes back.
var bodyPool = sync.Pool{New: func() any { b := make([]byte, 0, 1024); return &b }}

// maxPooledBody keeps one outsized answer from pinning its buffer.
const maxPooledBody = 64 << 10

// encodeAndWrite builds a 200 answer in a pooled buffer and sends it
// with one Write. When encoding fails it sends the 500 error envelope
// instead — before any header went out, so a body that could not be
// encoded is never acknowledged as a success.
func (s *Server) encodeAndWrite(w http.ResponseWriter, encode func([]byte) ([]byte, error)) {
	bp := bodyPool.Get().(*[]byte)
	body, err := encode((*bp)[:0])
	if err != nil {
		s.writeErr(w, http.StatusInternalServerError, "encoding response: %v", err)
	} else {
		w.Header()["Content-Type"] = jsonContentType
		w.WriteHeader(http.StatusOK)
		w.Write(body)
	}
	if cap(body) <= maxPooledBody {
		*bp = body[:0]
		bodyPool.Put(bp)
	}
}

// jsonContentType is the Content-Type value of every encoded answer,
// shared so that setting it costs no allocation; net/http only reads it.
var jsonContentType = []string{"application/json"}
