package orgs

// IDs returns all org IDs in sorted order: the registry's index, which
// the insertion tests check stays sorted and untouched by rejected adds.
func (r *Registry) IDs() []string {
	return append([]string(nil), r.ids...)
}
