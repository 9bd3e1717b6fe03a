package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sort"
)

// Golden is the committed oracle: the sha256 of every static artifact at
// the default world seed, for the single world and for each scenario of
// the matrix.
type Golden struct {
	World     WorldConfig                  `json:"world"`
	Single    map[string]string            `json:"single"`
	Scenarios map[string]map[string]string `json:"scenarios"`
}

// WorldConfig is the frozen paper-scale world every workload serves.
type WorldConfig struct {
	LIRs int   `json:"lirs"`
	Days int   `json:"days"`
	Seed int64 `json:"seed"`
}

func loadGolden(path string) (*Golden, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var g Golden
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &g, nil
}

// hashes returns the golden hashes for one scenario ("default" is the
// single world).
func (g *Golden) hashes(scenario string) map[string]string {
	if scenario == "default" {
		return g.Single
	}
	return g.Scenarios[scenario]
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// Artifacts is one target's static artifacts: body and ETag by path.
type Artifacts struct {
	Body map[string][]byte
	ETag map[string]string
}

// fetchArtifacts GETs every static path from a target and checks each
// body against want (path → sha256), when want is non-nil.
func fetchArtifacts(ctx context.Context, t Target, want map[string]string) (Artifacts, error) {
	a := Artifacts{Body: make(map[string][]byte), ETag: make(map[string]string)}
	for _, p := range StaticPaths {
		status, header, body, err := get(ctx, t.Base+t.Prefix+p)
		if err != nil {
			return a, fmt.Errorf("%s%s: %w", t.Name, p, err)
		}
		if status != http.StatusOK {
			return a, fmt.Errorf("%s%s: status %d", t.Name, p, status)
		}
		if want != nil {
			if got := sha256Hex(body); got != want[p] {
				return a, fmt.Errorf("%s%s: sha256 %s does not match the golden %s", t.Name, p, got, want[p])
			}
		}
		a.Body[p], a.ETag[p] = body, header.Get("ETag")
	}
	return a, nil
}

// sameETags reports the first path whose ETag differs between a and b.
func sameETags(a, b map[string]string) error {
	paths := make([]string, 0, len(a))
	for p := range a {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if a[p] != b[p] || a[p] == "" {
			return fmt.Errorf("%s: ETag %s, want %s", p, b[p], a[p])
		}
	}
	if len(a) != len(b) {
		return fmt.Errorf("%d artifacts, want %d", len(b), len(a))
	}
	return nil
}
