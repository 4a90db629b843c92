package store

import "fmt"

// OpenBackend opens a store by name: "segments" journals to per-shard
// segment files in the directory dsn. It is the only backend; an
// in-memory registry takes no Store at all.
func OpenBackend(name, dsn string) (Store, error) {
	switch name {
	case "segments":
		return OpenDir(dsn)
	default:
		return nil, fmt.Errorf("store: unknown backend %q (have segments)", name)
	}
}
