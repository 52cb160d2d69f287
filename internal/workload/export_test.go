package workload

// GeneratedPages reports how many pages the process has generated.
func GeneratedPages() int64 { return pagesGenerated.Load() }
