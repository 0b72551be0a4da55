;; A representative port of the traditional Scheme benchmark suite used
;; for figure 2 (checking that attachment support does not slow down
;; programs that never touch marks). Each `(X-bench n)` entry scales with
;; n and returns a checksum.

;; ---------------------------------------------------------------------
;; tak / takl / cpstak
;; ---------------------------------------------------------------------

(define (tak x y z)
  (if (not (< y x))
      z
      (tak (tak (- x 1) y z)
           (tak (- y 1) z x)
           (tak (- z 1) x y))))

(define (tak-bench n)
  (let loop ([i n] [acc 0])
    (if (zero? i) acc (loop (- i 1) (+ acc (tak 14 10 3))))))

(define (listn n) (if (zero? n) '() (cons n (listn (- n 1)))))

(define (shorterp x y)
  (and (pair? y) (or (null? x) (shorterp (cdr x) (cdr y)))))

(define (mas x y z)
  (if (not (shorterp y x))
      z
      (mas (mas (cdr x) y z)
           (mas (cdr y) z x)
           (mas (cdr z) x y))))

(define (takl-bench n)
  (let loop ([i n] [acc 0])
    (if (zero? i)
        acc
        (loop (- i 1) (+ acc (length (mas (listn 12) (listn 8) (listn 2))))))))

(define (cpstak x y z)
  (define (tak x y z k)
    (if (not (< y x))
        (k z)
        (tak (- x 1) y z
             (lambda (v1)
               (tak (- y 1) z x
                    (lambda (v2)
                      (tak (- z 1) x y
                           (lambda (v3) (tak v1 v2 v3 k)))))))))
  (tak x y z (lambda (a) a)))

(define (cpstak-bench n)
  (let loop ([i n] [acc 0])
    (if (zero? i) acc (loop (- i 1) (+ acc (cpstak 14 10 3))))))

;; ---------------------------------------------------------------------
;; fib / ack / div
;; ---------------------------------------------------------------------

(define (fib n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))

(define (fib-bench n) (fib n))

(define (ack m n)
  (cond [(zero? m) (+ n 1)]
        [(zero? n) (ack (- m 1) 1)]
        [else (ack (- m 1) (ack m (- n 1)))]))

(define (ack-bench n) (ack 2 n))

(define (create-n n) (listn n))

(define (recursive-div2 l)
  (if (null? l) '() (cons (car l) (recursive-div2 (cddr l)))))

(define (iterative-div2 l)
  (do ([l l (cddr l)] [a '() (cons (car l) a)])
      ((null? l) a)))

(define (div-bench n)
  (let ([l (create-n 200)])
    (let loop ([i n] [acc 0])
      (if (zero? i)
          acc
          (loop (- i 1)
                (+ acc
                   (length (recursive-div2 l))
                   (length (iterative-div2 l))))))))

;; ---------------------------------------------------------------------
;; deriv / dderiv: symbolic differentiation
;; ---------------------------------------------------------------------

(define (deriv a)
  (cond [(not (pair? a)) (if (eq? a 'x) 1 0)]
        [(eq? (car a) '+) (cons '+ (map deriv (cdr a)))]
        [(eq? (car a) '-) (cons '- (map deriv (cdr a)))]
        [(eq? (car a) '*)
         (list '* a (cons '+ (map (lambda (t) (list '/ (deriv t) t)) (cdr a))))]
        [(eq? (car a) '/)
         (list '- (list '/ (deriv (cadr a)) (caddr a))
               (list '/ (cadr a)
                     (list '* (caddr a) (caddr a) (deriv (caddr a)))))]
        [else (error "deriv: no derivation method" (car a))]))

(define deriv-input '(+ (* 3 x x) (* a x x) (* b x) 5))

(define (tree-count t)
  (if (pair? t)
      (+ (tree-count (car t)) (tree-count (cdr t)))
      1))

(define (deriv-bench n)
  (let loop ([i n] [acc 0])
    (if (zero? i)
        acc
        (loop (- i 1) (+ acc (tree-count (deriv deriv-input)))))))

;; Table-driven deriv (dderiv): dispatch through an association table.
(define dderiv-table (make-hashtable))

(define (dderiv a)
  (if (not (pair? a))
      (if (eq? a 'x) 1 0)
      (let ([f (hashtable-ref dderiv-table (car a) #f)])
        (if f (f a) (error "dderiv: no method" (car a))))))

(hashtable-set! dderiv-table '+
  (lambda (a) (cons '+ (map dderiv (cdr a)))))
(hashtable-set! dderiv-table '-
  (lambda (a) (cons '- (map dderiv (cdr a)))))
(hashtable-set! dderiv-table '*
  (lambda (a)
    (list '* a (cons '+ (map (lambda (t) (list '/ (dderiv t) t)) (cdr a))))))
(hashtable-set! dderiv-table '/
  (lambda (a)
    (list '- (list '/ (dderiv (cadr a)) (caddr a))
          (list '/ (cadr a)
                (list '* (caddr a) (caddr a) (dderiv (caddr a)))))))

(define (dderiv-bench n)
  (let loop ([i n] [acc 0])
    (if (zero? i)
        acc
        (loop (- i 1) (+ acc (tree-count (dderiv deriv-input)))))))

;; ---------------------------------------------------------------------
;; destruct: destructive list surgery
;; ---------------------------------------------------------------------

(define (destruct-make n m)
  (let loop ([i n] [acc '()])
    (if (zero? i) acc (loop (- i 1) (cons (listn m) acc)))))

(define (destruct-mutate! ls)
  (for-each
   (lambda (l)
     (let loop ([p l])
       (if (pair? (cdr p))
           (begin (set-car! p (+ (car p) 1)) (loop (cdr p)))
           (set-car! p 0))))
   ls)
  ls)

(define (destruct-sum ls)
  (fold-left (lambda (acc l) (+ acc (fold-left + 0 l))) 0 ls))

(define (destruct-bench n)
  (let loop ([i n] [acc 0])
    (if (zero? i)
        acc
        (loop (- i 1)
              (+ acc (destruct-sum (destruct-mutate! (destruct-make 20 20))))))))

;; ---------------------------------------------------------------------
;; nqueens
;; ---------------------------------------------------------------------

(define (nqueens n)
  (define (ok? row dist placed)
    (if (null? placed)
        #t
        (and (not (= (car placed) (+ row dist)))
             (not (= (car placed) (- row dist)))
             (ok? row (+ dist 1) (cdr placed)))))
  (define (try x y z)
    (if (null? x)
        (if (null? y) 1 0)
        (+ (if (ok? (car x) 1 z)
               (try (append (cdr x) y) '() (cons (car x) z))
               0)
           (try (cdr x) (cons (car x) y) z))))
  (try (iota n) '() '()))

(define (nqueens-bench n) (nqueens n))

;; ---------------------------------------------------------------------
;; sort1: merge sort over a pseudo-random list
;; ---------------------------------------------------------------------

(define (msort-merge a b)
  (cond [(null? a) b]
        [(null? b) a]
        [(< (car a) (car b)) (cons (car a) (msort-merge (cdr a) b))]
        [else (cons (car b) (msort-merge a (cdr b)))]))

(define (msort-split l)
  (if (or (null? l) (null? (cdr l)))
      (cons l '())
      (let ([rest (msort-split (cddr l))])
        (cons (cons (car l) (car rest))
              (cons (cadr l) (cdr rest))))))

(define (msort l)
  (if (or (null? l) (null? (cdr l)))
      l
      (let ([halves (msort-split l)])
        (msort-merge (msort (car halves)) (msort (cdr halves))))))

(define (sort1-random-list n seed)
  (let loop ([i n] [s seed] [acc '()])
    (if (zero? i)
        acc
        (let ([s2 (modulo (+ (* s 1103515245) 12345) 2147483648)])
          (loop (- i 1) s2 (cons (modulo s2 1000) acc))))))

(define (sort1-bench n)
  (let loop ([i n] [acc 0])
    (if (zero? i)
        acc
        (loop (- i 1)
              (+ acc (car (msort (sort1-random-list 200 (+ i 7)))))))))

;; ---------------------------------------------------------------------
;; fft: flonum-intensive fast Fourier transform
;; ---------------------------------------------------------------------

(define pi 3.141592653589793)

(define (fft! areal aimag)
  (let ([n (vector-length areal)])
    ;; bit-reversal permutation
    (let loop ([i 0] [j 0])
      (if (< i n)
          (begin
            (if (< i j)
                (let ([tr (vector-ref areal i)]
                      [ti (vector-ref aimag i)])
                  (vector-set! areal i (vector-ref areal j))
                  (vector-set! aimag i (vector-ref aimag j))
                  (vector-set! areal j tr)
                  (vector-set! aimag j ti))
                (void))
            (let adjust ([m (quotient n 2)] [j j])
              (if (and (>= m 1) (>= j m))
                  (adjust (quotient m 2) (- j m))
                  (loop (+ i 1) (+ j m)))))
          (void)))
    ;; butterflies
    (let stages ([len 1])
      (if (< len n)
          (let ([ang (/ pi (exact->inexact len))])
            (let blocks ([i 0])
              (if (< i n)
                  (begin
                    (let pairs ([k 0])
                      (if (< k len)
                          (let* ([theta (* ang (exact->inexact k))]
                                 [wr (cos-approx theta)]
                                 [wi (sin-approx theta)]
                                 [i1 (+ i k)]
                                 [i2 (+ i1 len)]
                                 [tr (- (* wr (vector-ref areal i2))
                                        (* wi (vector-ref aimag i2)))]
                                 [ti (+ (* wr (vector-ref aimag i2))
                                        (* wi (vector-ref areal i2)))])
                            (vector-set! areal i2 (- (vector-ref areal i1) tr))
                            (vector-set! aimag i2 (- (vector-ref aimag i1) ti))
                            (vector-set! areal i1 (+ (vector-ref areal i1) tr))
                            (vector-set! aimag i1 (+ (vector-ref aimag i1) ti))
                            (pairs (+ k 1)))
                          (void)))
                    (blocks (+ i (* 2 len))))
                  (void)))
            (stages (* 2 len)))
          (void)))
    areal))

;; Polynomial approximations keep the kernel self-contained (no libm).
(define (sin-approx x)
  (let* ([x2 (* x x)]
         [x3 (* x2 x)]
         [x5 (* x3 x2)]
         [x7 (* x5 x2)])
    (+ (- x (/ x3 6.0)) (- (/ x5 120.0) (/ x7 5040.0)))))

(define (cos-approx x)
  (let* ([x2 (* x x)]
         [x4 (* x2 x2)]
         [x6 (* x4 x2)])
    (+ (- 1.0 (/ x2 2.0)) (- (/ x4 24.0) (/ x6 720.0)))))

(define (fft-bench n)
  (let loop ([i n] [acc 0.0])
    (if (zero? i)
        (inexact->exact (floor acc))
        (let ([re (make-vector 256 0.0)]
              [im (make-vector 256 0.0)])
          (let fill ([j 0])
            (if (< j 256)
                (begin
                  (vector-set! re j (exact->inexact (modulo (* j 37) 97)))
                  (fill (+ j 1)))
                (void)))
          (fft! re im)
          (loop (- i 1) (+ acc (abs (vector-ref re 1))))))))

;; ---------------------------------------------------------------------
;; primes: sieve of Eratosthenes over vectors
;; ---------------------------------------------------------------------

(define (primes-count limit)
  (let ([v (make-vector (+ limit 1) #t)])
    (vector-set! v 0 #f)
    (vector-set! v 1 #f)
    (let loop ([i 2])
      (if (> (* i i) limit)
          (void)
          (begin
            (if (vector-ref v i)
                (let mark ([j (* i i)])
                  (if (<= j limit)
                      (begin (vector-set! v j #f) (mark (+ j i)))
                      (void)))
                (void))
            (loop (+ i 1)))))
    (let count ([i 0] [acc 0])
      (if (> i limit)
          acc
          (count (+ i 1) (if (vector-ref v i) (+ acc 1) acc))))))

(define (primes-bench n) (primes-count n))

;; ---------------------------------------------------------------------
;; collatz-q: a long arithmetic loop
;; ---------------------------------------------------------------------

(define (collatz-steps n)
  (let loop ([n n] [steps 0])
    (cond [(= n 1) steps]
          [(even? n) (loop (quotient n 2) (+ steps 1))]
          [else (loop (+ (* 3 n) 1) (+ steps 1))])))

(define (collatz-bench n)
  (let loop ([i 1] [acc 0])
    (if (> i n) acc (loop (+ i 1) (+ acc (collatz-steps i))))))
