package experiment

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
)

// The cache doubles as a content-addressed store (CAS): every entry's
// file name IS its address — a hash of the store's ID (normally the
// running binary's build ID) and the cell's canonical key. Addresses are
// therefore stable across processes built from the same source, which is
// what lets a fleet of isampd workers and an isampfleet coordinator
// share entries over HTTP (GET/PUT /v1/cas/{addr}): any node that has
// computed a cell can serve it to every other node, and a receiver can
// verify an entry's integrity without trusting the sender, because the
// payload embeds the cell key the address was derived from. See
// DESIGN.md §15.

// AddrLen is the hex length of a CAS address (16 bytes of SHA-256).
const AddrLen = 32

// CASAddr computes the content address of a cell key under a store ID:
// hex(sha256(id \x00 key)[:16]). It is the pure function both sides of
// the CAS protocol use; Cache.Addr is the bound form.
func CASAddr(id, key string) string {
	sum := sha256.Sum256([]byte(id + "\x00" + key))
	return hex.EncodeToString(sum[:16])
}

// ValidAddr reports whether s is a syntactically valid CAS address —
// exactly AddrLen lowercase hex characters. HTTP handlers use it to
// reject path-traversal attempts before touching the filesystem.
func ValidAddr(s string) bool {
	if len(s) != AddrLen {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// ID returns the store's content-addressing ID (the build ID for caches
// opened with OpenCache).
func (c *Cache) ID() string { return c.id }

// Addr returns the content address of a cell key in this store.
func (c *Cache) Addr(key string) string { return CASAddr(c.id, key) }

// VerifyCAS checks a CAS payload's integrity against its claimed
// address: the payload must decode, and the cell key it embeds must
// hash (under id) back to addr. A mismatch means corruption or a
// cross-build entry and the payload must be rejected, not stored.
func VerifyCAS(id, addr string, data []byte) error {
	var probe struct {
		CellKey string `json:"cell"`
	}
	if err := json.Unmarshal(data, &probe); err != nil {
		return fmt.Errorf("experiment: cas %s: undecodable payload: %w", addr, err)
	}
	if probe.CellKey == "" {
		return fmt.Errorf("experiment: cas %s: payload has no cell key", addr)
	}
	if got := CASAddr(id, probe.CellKey); got != addr {
		return fmt.Errorf("experiment: cas %s: integrity mismatch (payload addresses to %s)", addr, got)
	}
	return nil
}

// DecodeCAS decodes a CAS payload into the cell result it stores,
// returning the embedded cell key alongside. It performs no integrity
// check; pair it with VerifyCAS when the payload crossed a network.
func DecodeCAS(data []byte) (*CellResult, string, error) {
	var in cachedCell
	if err := json.Unmarshal(data, &in); err != nil {
		return nil, "", fmt.Errorf("experiment: cas payload: %w", err)
	}
	if in.CellKey == "" {
		return nil, "", fmt.Errorf("experiment: cas payload has no cell key")
	}
	return decodeCell(in), in.CellKey, nil
}

// GetAddr returns the raw stored payload for a CAS address, if present.
// A hit refreshes the entry's LRU position.
func (c *Cache) GetAddr(addr string) ([]byte, bool) {
	if !ValidAddr(addr) {
		return nil, false
	}
	data, err := os.ReadFile(c.addrPath(addr))
	if err != nil {
		return nil, false
	}
	c.mu.Lock()
	if c.sizes != nil {
		c.sizes.touch(addr)
	}
	c.mu.Unlock()
	return data, true
}

// PutAddr stores a raw payload under a CAS address after verifying its
// integrity (VerifyCAS with this store's ID). Unlike Store, failures are
// reported: a network CAS needs to distinguish a rejected payload from a
// full disk.
func (c *Cache) PutAddr(addr string, data []byte) error {
	if !ValidAddr(addr) {
		return fmt.Errorf("experiment: cas: invalid address %q", addr)
	}
	if err := VerifyCAS(c.id, addr, data); err != nil {
		return err
	}
	return c.writeEntry(addr, data)
}
