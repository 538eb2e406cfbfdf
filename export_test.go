package pdce

// The optimize-reply decoder and its fast path, for the external tests.
var (
	DecodeOptimizeResponse = decodeOptimizeResponse
	DecodeOptimizeFast     = decodeOptimizeFast
)

// AffinityKey is the key p routes one request by.
func (p *Pool) AffinityKey(name, source string, o RequestOptions) string {
	return p.affinityKey(name, source, o)
}
