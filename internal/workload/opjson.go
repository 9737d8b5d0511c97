package workload

import (
	"encoding/json"
	"fmt"
)

// JSON names for OpKind, in const order. These are wire-format: the serving
// tier's /v1/mutate endpoint accepts them, so renames are compatibility
// breaks, not refactors.
var opKindNames = [...]string{
	OpInsert:      "insert",
	OpDelete:      "delete",
	OpUpdateVenue: "update_venue",
	OpUpdateYear:  "update_year",
	OpLinkAdd:     "link_add",
	OpLinkDel:     "link_del",
}

// String names the kind for logs and JSON.
func (k OpKind) String() string {
	if int(k) < len(opKindNames) {
		return opKindNames[k]
	}
	return fmt.Sprintf("opkind(%d)", uint8(k))
}

// MarshalJSON encodes the kind as its name.
func (k OpKind) MarshalJSON() ([]byte, error) {
	if int(k) >= len(opKindNames) {
		return nil, fmt.Errorf("workload: unknown op kind %d", uint8(k))
	}
	return json.Marshal(opKindNames[k])
}

// UnmarshalJSON decodes a kind name; unknown names are an error, so a typoed
// mutation request is rejected instead of silently becoming an insert (the
// zero kind). An op object with no "kind" key never reaches this method —
// encoding/json leaves the zero kind in place — so a decoder at a trust
// boundary must check for the key itself (internal/serve's mutateOp does).
func (k *OpKind) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return fmt.Errorf("workload: op kind must be a string: %w", err)
	}
	for i, name := range opKindNames {
		if name == s {
			*k = OpKind(i)
			return nil
		}
	}
	return fmt.Errorf("workload: unknown op kind %q", s)
}
