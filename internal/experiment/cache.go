package experiment

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"instrsample/internal/profile"
	"instrsample/internal/vm"
)

// Cache is a content-keyed on-disk store of cell results. Entries are
// keyed by a hash of the cell's canonical key together with the running
// binary's build ID (a hash of the executable), so results computed by a
// stale build are never reused after the code changes. That hash is also
// the entry's content address — see cas.go for the CAS view a fleet
// shares over HTTP.
//
// The cache is best-effort: load and store failures silently fall back to
// recomputing the cell. A Cache is safe for concurrent use — entries are
// written to a temporary file and renamed into place.
//
// A byte budget (SetMaxBytes) turns on LRU eviction: the cache then
// tracks every entry's exact size and deletes the least-recently-used
// entries whenever a store would push the total over the budget, so
// long-lived CAS nodes do not grow without bound.
type Cache struct {
	dir string
	id  string

	// sizes holds every entry's exact on-disk size, least recently used
	// last; nil until SetMaxBytes arms a positive budget.
	mu    sync.Mutex
	sizes *lru
}

// OpenCache opens (creating if needed) a cache rooted at dir, addressed
// by the running binary's build ID.
func OpenCache(dir string) (*Cache, error) {
	return OpenCacheID(dir, buildID())
}

// OpenCacheID opens a cache whose content addresses are derived from an
// explicit store ID instead of this binary's build ID. The fleet
// coordinator uses it to address entries the worker binaries produced:
// addresses must be computed with the workers' shared build ID, which
// the coordinator learns from their /healthz handshake (DESIGN.md §15).
func OpenCacheID(dir, id string) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("experiment: cache: %w", err)
	}
	return &Cache{dir: dir, id: id}, nil
}

// Dir returns the cache's root directory.
func (c *Cache) Dir() string { return c.dir }

// buildIDOnce computes the build ID one time per process.
var buildIDOnce = sync.OnceValue(func() string {
	exe, err := os.Executable()
	if err != nil {
		return "unknown-build"
	}
	data, err := os.ReadFile(exe)
	if err != nil {
		return "unknown-build"
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
})

// buildID identifies the running binary's code content.
func buildID() string { return buildIDOnce() }

// BuildID returns the running binary's build ID — the sha256 of the
// executable's bytes, "unknown-build" if it cannot be read. It keys the
// on-disk result cache (stale builds never reuse entries) and is what the
// -version flag on isamp, experiments and isampd prints, so cache
// provenance is checkable from the command line.
func BuildID() string { return buildIDOnce() }

// addrPath maps a content address to its entry file.
func (c *Cache) addrPath(addr string) string {
	return filepath.Join(c.dir, addr+".json")
}

// path maps a cell key to its entry file.
func (c *Cache) path(key string) string { return c.addrPath(c.Addr(key)) }

// SetMaxBytes arms LRU eviction with a byte budget (0 disables). It
// scans the cache directory to build the exact size accounting —
// pre-existing entries are ordered oldest-modified first — and evicts
// immediately if the current contents already exceed the budget.
func (c *Cache) SetMaxBytes(n int64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sizes = nil
	if n <= 0 {
		return nil
	}
	entries, err := os.ReadDir(c.dir)
	if err != nil {
		return fmt.Errorf("experiment: cache: %w", err)
	}
	var found []fs.FileInfo
	for _, e := range entries {
		addr, ok := strings.CutSuffix(e.Name(), ".json")
		if !ok || !ValidAddr(addr) || e.IsDir() {
			continue
		}
		if info, err := e.Info(); err == nil {
			found = append(found, info)
		}
	}
	sort.Slice(found, func(i, j int) bool { return found[i].ModTime().Before(found[j].ModTime()) })
	c.sizes = newLRU(n, func(addr string) { os.Remove(c.addrPath(addr)) })
	for _, f := range found {
		// Oldest first, each put at the front, leaves the newest at the
		// front — the LRU order a cold index can best reconstruct.
		c.sizes.put(strings.TrimSuffix(f.Name(), ".json"), f.Size())
	}
	return nil
}

// Bytes returns the exact byte total of indexed entries (0 when no
// budget is armed).
func (c *Cache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.sizes == nil {
		return 0
	}
	return c.sizes.bytes
}

// Entries returns the number of indexed entries (0 when no budget is
// armed).
func (c *Cache) Entries() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.sizes == nil {
		return 0
	}
	return len(c.sizes.items)
}

// writeEntry atomically writes one entry file and accounts it. The
// rename and the accounting happen under one hold of the lock: an
// eviction between them could delete the file just renamed into place
// while the index went on counting it.
func (c *Cache) writeEntry(addr string, data []byte) error {
	tmp, err := os.CreateTemp(c.dir, "cell-*.tmp")
	if err != nil {
		return err
	}
	_, werr := tmp.Write(data)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		if werr != nil {
			return werr
		}
		return cerr
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := os.Rename(tmp.Name(), c.addrPath(addr)); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if c.sizes != nil {
		c.sizes.put(addr, int64(len(data)))
	}
	return nil
}

// cachedEntry is the serialized form of one profile event.
type cachedEntry struct {
	Key   uint64 `json:"k"`
	Count uint64 `json:"n"`
	Label string `json:"l,omitempty"`
}

// cachedProfile is the serialized form of one profile, entries in
// descending-count order. Labels are stored so reports that render them
// (Figure 7) stay byte-identical on a cache hit.
type cachedProfile struct {
	Name    string        `json:"name"`
	Entries []cachedEntry `json:"entries"`
}

// cachedSnapshot is the serialized form of one mid-run profile snapshot.
type cachedSnapshot struct {
	Cycle    uint64          `json:"cycle"`
	Profiles []cachedProfile `json:"profiles,omitempty"`
}

// cachedCell is the on-disk form of a CellResult. Snapshots is omitempty,
// so entries written before the telemetry subsystem existed decode
// unchanged.
type cachedCell struct {
	CellKey            string           `json:"cell"`
	Stats              vm.Stats         `json:"stats"`
	Profiles           []cachedProfile  `json:"profiles,omitempty"`
	CodeSize           int              `json:"code_size"`
	CheckingCodeSize   int              `json:"checking_code_size"`
	DuplicatedCodeSize int              `json:"duplicated_code_size"`
	Work               int64            `json:"work"`
	Return             int64            `json:"return,omitempty"`
	Output             []int64          `json:"output,omitempty"`
	Aux                map[string]int64 `json:"aux,omitempty"`
	Snapshots          []cachedSnapshot `json:"snapshots,omitempty"`
}

// encodeProfile flattens a profile for storage, keeping labels so reports
// that render them stay byte-identical on a cache hit.
func encodeProfile(p *profile.Profile) cachedProfile {
	cp := cachedProfile{Name: p.Name}
	for _, e := range p.Entries() {
		ce := cachedEntry{Key: e.Key, Count: e.Count}
		if p.Labeler != nil {
			ce.Label = p.Labeler(e.Key)
		}
		cp.Entries = append(cp.Entries, ce)
	}
	return cp
}

// decodeProfile rebuilds a profile, reattaching a labeler when labels
// were stored.
func decodeProfile(cp cachedProfile) *profile.Profile {
	p := profile.New(cp.Name)
	labels := make(map[uint64]string)
	for _, e := range cp.Entries {
		p.Add(e.Key, e.Count)
		if e.Label != "" {
			labels[e.Key] = e.Label
		}
	}
	setLabels(p, labels)
	return p
}

// setLabels makes labels p's labeler: a key renders as its label, or in
// hex when it has none; no labels leave p unlabeled. A cached or
// memoized profile keeps its labels this way, not through the labeler
// its run attached, which closes over the run's runtime and compiled
// program.
func setLabels(p *profile.Profile, labels map[uint64]string) {
	p.Labeler = nil
	if len(labels) == 0 {
		return
	}
	p.Labeler = func(k uint64) string {
		if l, ok := labels[k]; ok {
			return l
		}
		return fmt.Sprintf("%#x", k)
	}
}

// detachLabels renders the label of every entry of every labeled
// profile of res, its snapshots' included, and keeps them as the disk
// cache does (setLabels): a result entering the result store must not
// pin the compiled program its labelers close over.
func detachLabels(res *CellResult) {
	detach := func(ps []*profile.Profile) {
		for _, p := range ps {
			if p.Labeler == nil {
				continue
			}
			labels := make(map[uint64]string, p.NumEvents())
			for _, e := range p.Entries() {
				if l := p.Labeler(e.Key); l != "" {
					labels[e.Key] = l
				}
			}
			setLabels(p, labels)
		}
	}
	detach(res.Profiles)
	for _, s := range res.Snapshots {
		detach(s.Profiles)
	}
}

// decodeCell rebuilds a CellResult from its on-disk form.
func decodeCell(in cachedCell) *CellResult {
	res := &CellResult{
		Stats:              in.Stats,
		CodeSize:           in.CodeSize,
		CheckingCodeSize:   in.CheckingCodeSize,
		DuplicatedCodeSize: in.DuplicatedCodeSize,
		Work:               in.Work,
		Return:             in.Return,
		Output:             in.Output,
		Aux:                in.Aux,
	}
	for _, cp := range in.Profiles {
		res.Profiles = append(res.Profiles, decodeProfile(cp))
	}
	for _, cs := range in.Snapshots {
		snap := ProfileSnapshot{Cycle: cs.Cycle}
		for _, cp := range cs.Profiles {
			snap.Profiles = append(snap.Profiles, decodeProfile(cp))
		}
		res.Snapshots = append(res.Snapshots, snap)
	}
	return res
}

// encodeCell flattens a CellResult to its on-disk form under key.
func encodeCell(key string, res *CellResult) cachedCell {
	out := cachedCell{
		CellKey:            key,
		Stats:              res.Stats,
		CodeSize:           res.CodeSize,
		CheckingCodeSize:   res.CheckingCodeSize,
		DuplicatedCodeSize: res.DuplicatedCodeSize,
		Work:               res.Work,
		Return:             res.Return,
		Output:             res.Output,
		Aux:                res.Aux,
	}
	for _, p := range res.Profiles {
		out.Profiles = append(out.Profiles, encodeProfile(p))
	}
	for _, snap := range res.Snapshots {
		cs := cachedSnapshot{Cycle: snap.Cycle}
		for _, p := range snap.Profiles {
			cs.Profiles = append(cs.Profiles, encodeProfile(p))
		}
		out.Snapshots = append(out.Snapshots, cs)
	}
	return out
}

// Load returns the cached result for key, if present and decodable.
func (c *Cache) Load(key string) (*CellResult, bool) {
	data, ok := c.GetAddr(c.Addr(key))
	if !ok {
		return nil, false
	}
	if res, k, err := DecodeCAS(data); err == nil && k == key {
		return res, true
	}
	return nil, false
}

// Store writes the result for key. Failures are ignored: the cache is an
// accelerator, never a correctness dependency.
func (c *Cache) Store(key string, res *CellResult) {
	data, err := json.Marshal(encodeCell(key, res))
	if err != nil {
		return
	}
	c.writeEntry(c.Addr(key), data) //nolint:errcheck // best-effort store
}
