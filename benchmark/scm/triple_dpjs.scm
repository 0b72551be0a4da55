;; The triple benchmark, "[DPJS]" variant: shift/reset implemented in
;; terms of *undelimited* call/cc plus a metacontinuation cell — the
;; classic Filinski construction, standing in for the Dybvig/Peyton
;; Jones/Sabry library implementation the paper runs (which likewise
;; builds delimited control over call/cc and mutable state). Same
;; deterministic search order as the native variant.

;; The metacontinuation: what to do with the value of the current
;; delimited computation.
(define $dpjs-mk (lambda (v) (error "dpjs: no enclosing reset")))

(define (dpjs-abort v) ($dpjs-mk v))

(define (dpjs-reset thunk)
  (call/cc
   (lambda (k)
     (let ([saved $dpjs-mk])
       (set! $dpjs-mk
             (lambda (v)
               (set! $dpjs-mk saved)
               (k v)))
       (dpjs-abort (thunk))))))

(define (dpjs-shift f)
  (call/cc
   (lambda (k)
     (dpjs-abort
      (f (lambda (v)
           (dpjs-reset (lambda () (k v)))))))))

(define (dpjs-choice lo hi)
  (dpjs-shift
   (lambda (k)
     (let loop ([i lo] [count 0])
       (if (> i hi)
           count
           (loop (+ i 1) (+ count (k i))))))))

(define (triple-dpjs n)
  (dpjs-reset
   (lambda ()
     (let ([i (dpjs-choice 0 n)])
       (dpjs-reset
        (lambda ()
          (let* ([j (dpjs-choice i n)]
                 [k (- n i j)])
            (if (and (>= k j) (<= k n)) 1 0))))))))
