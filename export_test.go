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

// Home is the base URL of the replica the ring makes key's home.
func (p *Pool) Home(key string) string { return p.candidates(key)[0].base }
