package index

import (
	"slices"

	"preserv/internal/core"
)

// BatchPostingKeys returns the posting keys AddBatch writes for records.
func BatchPostingKeys(records []*core.Record) (out []string) {
	withPostingKeys(records, func(keys []string) error {
		out = slices.Clone(keys)
		return nil
	})
	return out
}
