package pdce

// The optimize-reply decoder and its fast path, for the external tests.
var (
	DecodeOptimizeResponse = decodeOptimizeResponse
	DecodeOptimizeFast     = decodeOptimizeFast
)
