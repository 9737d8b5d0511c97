package workload

import (
	"encoding/json"
	"testing"
)

func TestOpKindJSONRoundTrip(t *testing.T) {
	for k := OpInsert; k <= OpLinkDel; k++ {
		b, err := json.Marshal(k)
		if err != nil {
			t.Fatalf("marshal %v: %v", k, err)
		}
		var back OpKind
		if err := json.Unmarshal(b, &back); err != nil || back != k {
			t.Fatalf("round trip %v: got %v err %v", k, back, err)
		}
	}
	var k OpKind
	if err := json.Unmarshal([]byte(`"vaporize"`), &k); err == nil {
		t.Fatal("unknown kind must be rejected")
	}
	if err := json.Unmarshal([]byte(`3`), &k); err == nil {
		t.Fatal("numeric kind must be rejected")
	}
	op := Op{Kind: OpUpdateVenue, PID: 42, Venue: "SIGMOD"}
	b, err := json.Marshal(op)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"kind":"update_venue","pid":42,"venue":"SIGMOD"}`
	if string(b) != want {
		t.Fatalf("op JSON = %s, want %s", b, want)
	}
}
