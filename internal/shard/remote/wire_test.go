package remote

import (
	"encoding/json"
	"errors"
	"math"
	"testing"

	"road/internal/apierr"
	"road/internal/shard"
)

// TestWireErrorRoundTrip checks that every typed sentinel survives the
// encode/decode cycle with its errors.Is identity AND its message
// intact — the property the serving layer's status mapping and the
// Router's divergence checks both depend on.
func TestWireErrorRoundTrip(t *testing.T) {
	for _, wc := range wireCodes {
		wrapped := errors.Join(errors.New("context"), wc.err)
		code, msg := encodeErr(wrapped)
		if code != wc.code {
			t.Fatalf("%v encoded as %q, want %q", wc.err, code, wc.code)
		}
		dec := decodeErr(code, msg)
		if !errors.Is(dec, wc.err) {
			t.Fatalf("decoded %q lost identity of %v", code, wc.err)
		}
		if dec.Error() != wrapped.Error() {
			t.Fatalf("decoded message %q, want %q", dec.Error(), wrapped.Error())
		}
	}
}

// TestWireErrorUnknown checks that an error with no sentinel identity
// crosses the wire as a plain error that is NOT errors.Is any sentinel.
func TestWireErrorUnknown(t *testing.T) {
	code, msg := encodeErr(errors.New("something host-specific"))
	if code != codeOther {
		t.Fatalf("untyped error encoded as %q, want %q", code, codeOther)
	}
	dec := decodeErr(code, msg)
	if dec.Error() != "something host-specific" {
		t.Fatalf("decoded message %q", dec.Error())
	}
	if errors.Is(dec, apierr.ErrShardUnavailable) || errors.Is(dec, apierr.ErrNoSuchObject) {
		t.Fatal("untyped error gained a sentinel identity")
	}
}

// TestWireDistRoundTrip checks the ±Inf translation: leg distance lists
// ship +Inf (unreachable target) as -1 because JSON has no Inf.
func TestWireDistRoundTrip(t *testing.T) {
	in := []float64{0, 1.5, math.Inf(1), 2.25, math.Inf(1)}
	d := append([]float64(nil), in...)
	encDists(d)
	for _, v := range d {
		if math.IsInf(v, 0) {
			t.Fatalf("encoded slice still contains Inf: %v", d)
		}
	}
	decDists(d)
	for i := range in {
		if d[i] != in[i] && !(math.IsInf(d[i], 1) && math.IsInf(in[i], 1)) {
			t.Fatalf("round trip [%d]: %v, want %v", i, d[i], in[i])
		}
	}
}

// TestHedgeDelayBounds checks the hedging trigger: no hedge until the
// histogram has enough samples, then a p99-derived delay clamped to
// [1ms, 2s].
func TestHedgeDelayBounds(t *testing.T) {
	c := NewHostClient("127.0.0.1:1", nil)
	if _, ok := c.hedgeDelay(); ok {
		t.Fatal("hedge armed with an empty latency histogram")
	}
	// Fill with microsecond-scale samples: the clamp must floor at 1ms.
	for i := 0; i < 200; i++ {
		c.hist.Observe(50e-6)
	}
	d, ok := c.hedgeDelay()
	if !ok {
		t.Fatal("hedge not armed after 200 samples")
	}
	if d < hedgeMinDelay || d > hedgeMaxDelay {
		t.Fatalf("hedge delay %v outside [%v, %v]", d, hedgeMinDelay, hedgeMaxDelay)
	}
}

// TestOlderHostPayloadsDecode: a router reads an older host's exported
// state and mutation reply, which still carry the nearest-border fields
// (border_dist, derived cells) the router no longer has. encoding/json
// ignores them, and everything the router does read survives.
func TestOlderHostPayloadsDecode(t *testing.T) {
	var st shard.ShardState
	env := envelope{Resp: json.RawMessage(`{"id":2,"borders":[5,9],"btable":{"5":[{"To":9,"Dist":1.5}]},"border_dist":[0,-1,2.5],"epoch":4}`)}
	if err := decodeEnvelope(env, &st); err != nil {
		t.Fatal(err)
	}
	if st.ID != 2 || len(st.Borders) != 2 || len(st.BTable[5]) != 1 || st.BTable[5][0].Dist != 1.5 || st.Epoch != 4 {
		t.Fatalf("older host state decoded as %+v", st)
	}
	var rep shard.ApplyReply
	env = envelope{Resp: json.RawMessage(`{"epoch":7,"derived":{"kind":"patch","rows":[{"border":5,"arcs":[{"To":9,"Dist":2}]}],"cells":[{"n":3,"d":-1}]}}`)}
	if err := decodeEnvelope(env, &rep); err != nil {
		t.Fatal(err)
	}
	if u := rep.Derived; rep.Epoch != 7 || u == nil || u.Kind != shard.DerivedPatch || len(u.Rows) != 1 || u.Rows[0].Arcs[0].Dist != 2 {
		t.Fatalf("older host reply decoded as %+v (derived %+v)", rep, rep.Derived)
	}
}
