package obs

import (
	"encoding/json"
	"io"
	"os"
)

// Manifest is the JSON-serializable summary of one observed run: metadata
// set by the caller (seed, policy, fleet) plus the full registry snapshot
// — flat metrics, dimensional vecs, and exact per-event-type totals. It is
// what the CLIs' -metrics flags write. The snapshot is embedded, so its
// fields serialize flat and manifests written before vecs existed still
// decode.
type Manifest struct {
	Seed   uint64   `json:"seed,omitempty"`
	Policy string   `json:"policy,omitempty"`
	Fleet  []string `json:"fleet,omitempty"`
	RegistrySnapshot
}

// Manifest snapshots the registry (and its tracer) into a Manifest. The
// caller fills Seed, Policy and Fleet. A nil registry yields a zero
// manifest.
func (r *Registry) Manifest() Manifest {
	return Manifest{RegistrySnapshot: r.Snapshot()}
}

// WriteJSON writes the manifest as indented JSON.
func (m Manifest) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}

// WriteFile writes the manifest to path as indented JSON, creating or
// truncating the file.
func (m Manifest) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := m.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
