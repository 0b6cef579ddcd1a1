package cdfg

import (
	"bytes"
	"testing"
)

// FuzzParseJSON exercises the JSON graph decoder — the synthesis
// service's request-payload format — with arbitrary bytes: it must never
// panic, anything it accepts must pass structural validation, and the
// accepted graph must survive a marshal/unmarshal round trip exactly:
// the same nodes, the same successor and predecessor orders, and the same
// bytes when marshaled again.
func FuzzParseJSON(f *testing.F) {
	seeds := []string{
		``,
		`{}`,
		`{"nodes":[],"edges":[]}`,
		`{"name":"g","nodes":[{"name":"a","op":"imp"},{"name":"b","op":"+"},{"name":"o","op":"xpt"}],"edges":[{"from":"a","to":"b"},{"from":"b","to":"o"}]}`,
		`{"nodes":[{"name":"a","op":"bogus"}]}`,
		`{"nodes":[{"name":"a","op":"+"},{"name":"a","op":"+"}]}`,
		`{"nodes":[{"name":"a","op":"+"}],"edges":[{"from":"a","to":"a"}]}`,
		`{"nodes":[{"name":"a","op":"+"}],"edges":[{"from":"a","to":"ghost"}]}`,
		`{"nodes":[{"name":"a","op":"+"},{"name":"b","op":"+"}],"edges":[{"from":"a","to":"b"},{"from":"b","to":"a"}]}`,
		`[1,2,3]`,
		`{"nodes":`,
		`{"nodes":[{"name":"a","op":"imp"},{"name":"b","op":"imp"},{"name":"m","op":"*"}],"edges":[{"from":"b","to":"m"},{"from":"a","to":"m"}]}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ParseJSON(data)
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("JSON decoder accepted invalid graph: %v\ninput: %q", err, data)
		}
		out, err := g.MarshalJSON()
		if err != nil {
			t.Fatalf("accepted graph does not marshal: %v", err)
		}
		g2, err := ParseJSON(out)
		if err != nil {
			t.Fatalf("marshaled graph does not reparse: %v\njson: %s", err, out)
		}
		if g2.Name != g.Name || !sameOrders(g, g2) {
			t.Fatalf("round trip changed the graph\ninput: %q\njson:  %s", data, out)
		}
		out2, err := g2.MarshalJSON()
		if err != nil {
			t.Fatalf("round-tripped graph does not marshal: %v", err)
		}
		if !bytes.Equal(out, out2) {
			t.Fatalf("marshal not stable over a round trip:\n%s\nvs\n%s", out, out2)
		}
	})
}
