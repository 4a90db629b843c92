package store

import "fmt"

// OpenBackend opens a store by name: "null" journals nothing (dsn is
// unused), and "segments" journals to per-shard segment files in the
// directory dsn.
func OpenBackend(name, dsn string) (Store, error) {
	switch name {
	case "null":
		return Null{}, nil
	case "segments":
		return OpenDir(dsn)
	default:
		return nil, fmt.Errorf("store: unknown backend %q (have null|segments)", name)
	}
}
