package encdb

import (
	"bytes"
	"fmt"

	"repro/internal/accessarea"
	"repro/internal/value"
)

// EncryptDomains maps plaintext attribute domains ("Domains" shared
// information of Table I) into ciphertext space for encrypted
// access-area computation: numeric endpoints are OPE-encrypted under the
// attribute's key (preserving order, hence all area verdicts), and
// string domains become the universal byte-string interval, which bounds
// every DET ciphertext. Keys of the returned map are encrypted attribute
// names, matching the column references in access-area-mode queries.
func (d *Deployment) EncryptDomains(schema *Schema, domains map[string]accessarea.Domain) (map[string]accessarea.Domain, error) {
	out := make(map[string]accessarea.Domain, len(domains))
	for attr, dom := range domains {
		infos := schema.byName[attr]
		if len(infos) == 0 {
			return nil, fmt.Errorf("encdb: domain attribute %q not in schema", attr)
		}
		info := infos[0]
		for _, other := range infos[1:] {
			if other.Kind != info.Kind {
				return nil, fmt.Errorf("encdb: attribute %q has conflicting kinds across tables", attr)
			}
		}
		encName := d.EncryptAttrName(attr)
		switch info.Kind {
		case KindInt, KindFloat:
			lo, err := d.encryptOPE(info.Table, info.Name, info.Kind, widen(dom.Min, info.Kind))
			if err != nil {
				return nil, fmt.Errorf("encdb: domain %q min: %w", attr, err)
			}
			hi, err := d.encryptOPE(info.Table, info.Name, info.Kind, widen(dom.Max, info.Kind))
			if err != nil {
				return nil, fmt.Errorf("encdb: domain %q max: %w", attr, err)
			}
			out[encName] = accessarea.Domain{Min: lo, Max: hi}
		case KindString:
			// DET ciphertexts have no usable order; bound them by the
			// universal byte-string interval instead. All string areas
			// in access-area mode are point sets, for which only
			// membership matters.
			out[encName] = accessarea.Domain{
				Min: value.Bytes(nil),
				Max: value.Bytes(bytes.Repeat([]byte{0xFF}, 64)),
			}
		default:
			return nil, fmt.Errorf("encdb: unsupported domain kind for %q", attr)
		}
	}
	return out, nil
}

// EncryptConstantDET exposes per-column DET constant encryption for
// experiment harnesses (e.g. building attacker-observed ciphertext
// streams outside full query rewriting).
func (d *Deployment) EncryptConstantDET(table, column string, v value.Value) (value.Value, error) {
	return d.encryptDET(table, column, v)
}

// EncryptConstantOPE exposes per-column OPE constant encryption.
func (d *Deployment) EncryptConstantOPE(table, column string, kind ColumnKind, v value.Value) (value.Value, error) {
	return d.encryptOPE(table, column, kind, widen(v, kind))
}

// EncryptConstantPROB exposes per-column PROB constant encryption.
func (d *Deployment) EncryptConstantPROB(table, column string, v value.Value) (value.Value, error) {
	return d.encryptPROB(table, column, v)
}
