package gluon

// SetSliceBytes sets the value bytes one slice of a cut order carries, for
// the instances memoized until the returned restore runs. Tests lower it so
// that small graphs cut their orders into several slices.
func SetSliceBytes(n int) (restore func()) {
	old := sliceBytes
	sliceBytes = n
	return func() { sliceBytes = old }
}
