;; The §8.4 contract microbenchmark: calling an imported, non-inlined
;; identity function with and without an (-> integer? integer?) contract.
;; The checked loop is the pattern sped up by opportunistic one-shot
;; continuations and the compiler's attachment specialization.

(define (contract-identity x) x)

(define contract-checked-identity
  ((contract-> integer? integer? 'id) contract-identity))

(define (contract-unchecked-bench n)
  (let loop ([i n] [acc 0])
    (if (zero? i) acc (loop (- i 1) (contract-identity (+ acc 1))))))

(define (contract-checked-bench n)
  (let loop ([i n] [acc 0])
    (if (zero? i) acc (loop (- i 1) (contract-checked-identity (+ acc 1))))))
