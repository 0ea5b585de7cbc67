package registry

import (
	"errors"
	"fmt"
	"strings"
)

// ErrUnauthorized is returned when an agent accesses a data asset outside
// its privileges (§VII: "agents with different privileges").
var ErrUnauthorized = errors.New("registry: agent not authorized for asset")

// Grant restricts the asset to the listed agents. An asset with no grants
// is public. Granting on a missing asset fails.
func (r *DataRegistry) Grant(assetName string, agents ...string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	key, _, err := r.getLocked(assetName)
	if err != nil {
		return err
	}
	g := r.grants[key]
	if g == nil {
		g = make(map[string]bool)
		r.grants[key] = g
	}
	for _, agent := range agents {
		g[strings.ToLower(agent)] = true
	}
	return nil
}

// Revoke removes an agent's grant. Revoking the last grant makes the asset
// restricted-to-nobody, not public; use ClearGrants to re-open it.
func (r *DataRegistry) Revoke(assetName, agent string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.grants[strings.ToLower(assetName)]; ok {
		delete(g, strings.ToLower(agent))
	}
}

// ClearGrants makes the asset public again.
func (r *DataRegistry) ClearGrants(assetName string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.grants, strings.ToLower(assetName))
}

// Authorized reports whether the agent may use the asset. Ungoverned assets
// are public. Authorization is hierarchical: a grant on a parent asset
// (e.g. the database) covers its children (tables), mirroring the registry's
// lakehouse-to-table hierarchy (§V-D).
func (r *DataRegistry) Authorized(assetName, agent string) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.authorizedLocked(strings.ToLower(assetName), strings.ToLower(agent))
}

func (r *DataRegistry) authorizedLocked(assetKey, agent string) bool {
	a, ok := r.entries[assetKey]
	if !ok {
		return false
	}
	if g, governed := r.grants[assetKey]; governed {
		return g[agent]
	}
	if a.Parent != "" {
		parentKey := strings.ToLower(a.Parent)
		if _, governed := r.grants[parentKey]; governed {
			return r.authorizedLocked(parentKey, agent)
		}
	}
	return true
}

// CheckAccess returns ErrUnauthorized when the agent may not use the asset.
func (r *DataRegistry) CheckAccess(assetName, agent string) error {
	if !r.Authorized(assetName, agent) {
		return fmt.Errorf("%w: %s -> %s", ErrUnauthorized, agent, assetName)
	}
	return nil
}

// DiscoverFor is privilege-aware discovery: results the agent may not use
// are filtered out before ranking truncation, so restricted assets never
// leak into plans (§VII data governance).
func (r *DataRegistry) DiscoverFor(agent, query string, k int) []AssetHit {
	hits := r.Discover(query, k*4)
	out := make([]AssetHit, 0, k)
	for _, h := range hits {
		if r.Authorized(h.Asset.Name, agent) {
			out = append(out, h)
			if len(out) == k {
				break
			}
		}
	}
	return out
}
