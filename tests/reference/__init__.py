"""Plain reference implementations the tests compare program code against.

Each module here is the slow, obviously-correct form of something the
package does vectorised or batched: the scalar feedback Lorenzo pass,
bit-at-a-time I/O, the codeword-table Huffman encoder, scalar varints,
the ACF correlation length, the Cholesky field sampler and the inverses
of the Haar and multigrid decompositions.  No program path imports this
package.
"""
