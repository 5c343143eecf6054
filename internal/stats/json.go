package stats

import (
	"encoding/json"
	"fmt"
)

// weightedJSON is the stable wire shape of a Weighted distribution:
// values ascending, masses positionally aligned, and the accumulated
// total carried verbatim. encoding/json renders float64 with the
// shortest representation that parses back to the same bits, so a
// marshal/unmarshal round trip reproduces the distribution exactly —
// the property the cluster's JSON peer views rely on for merges that
// are byte-identical to a single process. (Shard checkpoints are
// binary and store the same triple as IEEE-754 bits; see Restore.)
type weightedJSON struct {
	Values []float64 `json:"values,omitempty"`
	Masses []float64 `json:"masses,omitempty"`
	Total  float64   `json:"total"`
}

// MarshalJSON implements json.Marshaler with an exact, deterministic
// encoding (values sorted ascending).
func (w *Weighted) MarshalJSON() ([]byte, error) {
	enc := weightedJSON{Total: w.total}
	if len(w.mass) > 0 {
		enc.Values = w.Values()
		enc.Masses = make([]float64, len(enc.Values))
		for i, v := range enc.Values {
			enc.Masses[i] = w.mass[v]
		}
	}
	return json.Marshal(enc)
}

// UnmarshalJSON implements json.Unmarshaler. The stored total is
// restored verbatim rather than re-accumulated, so a distribution
// round-trips to bitwise-equal state regardless of how its weights
// were originally ordered.
func (w *Weighted) UnmarshalJSON(b []byte) error {
	var dec weightedJSON
	if err := json.Unmarshal(b, &dec); err != nil {
		return err
	}
	if len(dec.Values) != len(dec.Masses) {
		return fmt.Errorf("stats: weighted distribution with %d values but %d masses",
			len(dec.Values), len(dec.Masses))
	}
	var mass map[float64]float64
	if len(dec.Values) > 0 {
		mass = make(map[float64]float64, len(dec.Values))
		for i, v := range dec.Values {
			mass[v] = dec.Masses[i]
		}
	}
	w.Restore(mass, dec.Total)
	return nil
}
