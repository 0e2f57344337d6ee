package strategy

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// Info is the machine-readable description of one registered strategy —
// the shared wire shape behind `rff tools -json` and the daemon's
// `GET /v1/tools` discovery endpoint, so scripts and service clients
// parse one format.
type Info struct {
	// Name is the registry key ("pct").
	Name string `json:"name"`
	// Usage is the spec grammar ("pct:<depth>").
	Usage string `json:"usage"`
	// Summary is the one-line description.
	Summary string `json:"summary"`
	// Tool is the canonical tool name the bare spec resolves to ("PCT3").
	Tool string `json:"tool"`
	// Canonical is the canonical form of the bare spec ("pct:3").
	Canonical string `json:"canonical"`
	// Aliases lists alternative spellings that resolve to this strategy,
	// sorted.
	Aliases []string `json:"aliases,omitempty"`
	// Deterministic reports whether the tool runs a single trial.
	Deterministic bool `json:"deterministic"`
}

// Describe builds the registry's Info list, sorted by name. Resolution
// uses an empty Config, which every registered factory accepts.
func Describe() ([]Info, error) {
	aliasesOf := make(map[string][]string)
	for name, target := range aliases {
		sp, err := ParseSpec(target)
		if err != nil {
			return nil, fmt.Errorf("alias %q has malformed target %q: %w", name, target, err)
		}
		aliasesOf[sp.Name] = append(aliasesOf[sp.Name], name)
	}
	var out []Info
	for _, e := range Entries() {
		tl, err := Resolve(e.Name, Config{})
		if err != nil {
			return nil, fmt.Errorf("resolving %q: %w", e.Name, err)
		}
		canon, err := Canonical(e.Name)
		if err != nil {
			return nil, fmt.Errorf("canonicalizing %q: %w", e.Name, err)
		}
		als := aliasesOf[e.Name]
		sort.Strings(als)
		out = append(out, Info{
			Name:          e.Name,
			Usage:         e.Usage,
			Summary:       e.Summary,
			Tool:          tl.Name(),
			Canonical:     canon,
			Aliases:       als,
			Deterministic: tl.Deterministic(),
		})
	}
	return out, nil
}

// WriteJSON encodes the registry listing as indented JSON to w — the
// one encoder both the CLI flag and the service endpoint call.
func WriteJSON(w io.Writer) error {
	infos, err := Describe()
	if err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(infos)
}
