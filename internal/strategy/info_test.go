package strategy

import (
	"bytes"
	"encoding/json"
	"testing"
)

func TestDescribeCoversRegistry(t *testing.T) {
	infos, err := Describe()
	if err != nil {
		t.Fatal(err)
	}
	names := Names()
	if len(infos) != len(names) {
		t.Fatalf("Describe returned %d entries, registry has %d", len(infos), len(names))
	}
	byName := make(map[string]Info, len(infos))
	for i, in := range infos {
		if in.Name != names[i] {
			t.Errorf("entry %d: name %q, want sorted %q", i, in.Name, names[i])
		}
		if in.Tool == "" || in.Usage == "" || in.Summary == "" || in.Canonical == "" {
			t.Errorf("entry %q has empty fields: %+v", in.Name, in)
		}
		// The advertised canonical spec must itself resolve to the
		// advertised tool name.
		tl, err := Resolve(in.Canonical, Config{})
		if err != nil {
			t.Errorf("canonical %q does not resolve: %v", in.Canonical, err)
		} else if tl.Name() != in.Tool {
			t.Errorf("canonical %q resolves to %q, advertised %q", in.Canonical, tl.Name(), in.Tool)
		}
		byName[in.Name] = in
	}
	// Known shape checks: pct canonicalizes its default depth, genmc is
	// deterministic, rff has its nofb alias attached via rff-nofb? (the
	// rff-nofb alias targets rff:nofb, so it lands on "rff").
	if in := byName["pct"]; in.Canonical != "pct:3" {
		t.Errorf("pct canonical = %q, want pct:3", in.Canonical)
	}
	if in := byName["genmc"]; !in.Deterministic {
		t.Error("genmc not marked deterministic")
	}
}

func TestWriteJSONIsParseable(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var infos []Info
	if err := json.Unmarshal(buf.Bytes(), &infos); err != nil {
		t.Fatalf("WriteJSON output does not parse: %v\n%s", err, buf.String())
	}
	if len(infos) != len(Names()) {
		t.Fatalf("parsed %d entries, want %d", len(infos), len(Names()))
	}
	// Two encodings are byte-identical: the listing is deterministic.
	var buf2 bytes.Buffer
	if err := WriteJSON(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("WriteJSON is not deterministic")
	}
}
