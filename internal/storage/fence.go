package storage

// Fence persistence. A fencing epoch is the fleet router's
// configuration counter for one shard: it is bumped at every leader
// promotion and at every migration cutover, and a node may acknowledge
// a stamped write only when the stamp equals the fence it has
// persisted. The fence lives next to the WAL segments — same directory,
// same durability discipline (write, fsync, rename, directory sync) —
// because it answers the same question the WAL does after a crash:
// "what had this node promised before the lights went out?". A leader
// that loses its fence file would forget it was deposed.

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// fenceFileName is the fence manifest inside a node's WAL root.
const fenceFileName = "fence.current"

// SaveFence durably records fence under dir through commitFile: a crash
// leaves either the old fence or the new one, never a torn file.
func SaveFence(dir string, fence uint64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return commitLine(filepath.Join(dir, fenceFileName), strconv.FormatUint(fence, 10))
}

// LoadFence reads the fence persisted under dir. ok=false (with nil
// error) means no fence has ever been installed — the node is
// unfenced, which is the standalone / pre-fleet state.
func LoadFence(dir string) (uint64, bool, error) {
	data, err := os.ReadFile(filepath.Join(dir, fenceFileName))
	if errors.Is(err, fs.ErrNotExist) {
		return 0, false, nil
	}
	if err != nil {
		return 0, false, err
	}
	fence, err := strconv.ParseUint(strings.TrimSpace(string(data)), 10, 64)
	if err != nil {
		return 0, false, fmt.Errorf("%w: fence manifest: %v", ErrCorrupt, err)
	}
	return fence, true, nil
}

// RemoveCheckpoints deletes name's checkpoint manifest and every
// epoch-named snapshot under dir — the durable half of dropping a graph
// after it has migrated to another shard. Missing files are fine (the
// graph may never have checkpointed); the directory entry is synced so
// the deletions survive a crash.
func RemoveCheckpoints(dir, name string) error {
	if err := os.Remove(manifestPath(dir, name)); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	ents, err := os.ReadDir(dir)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	for _, e := range ents {
		if _, ok := checkpointSnapEpoch(name, e.Name()); ok {
			if err := os.Remove(filepath.Join(dir, e.Name())); err != nil {
				return err
			}
		}
	}
	return syncDir(dir)
}
