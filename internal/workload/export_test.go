package workload

// ImageBuilds reports how many initial memory images Image has built in
// this process, memoised or not.
func ImageBuilds() int64 { return imageBuilds.Load() }
