;; Five synthetic "application" workloads standing in for the paper's
;; §8.4 end-to-end programs (ActivityLog, Xsmith, Megaparsack JSON,
;; Markdown, OL1V3R). Each depends significantly on contract checking
;; and/or dynamic binding (parameters), which is the performance trait
;; the paper measures; each returns a deterministic checksum.

;; A tiny deterministic PRNG shared by the generators.
(define (lcg-next s) (modulo (+ (* s 1103515245) 12345) 2147483648))

;; ---------------------------------------------------------------------
;; 1. activity-log: import fixed-width records, accumulate statistics
;;    through contract-checked accessors (≈ ActivityLog import).
;; ---------------------------------------------------------------------

(define alog-distance
  ((contract-> pair? integer? 'alog-distance) (lambda (r) (car r))))
(define alog-heart-rate
  ((contract-> pair? integer? 'alog-hr) (lambda (r) (cadr r))))
(define alog-elevation
  ((contract-> pair? integer? 'alog-elev) (lambda (r) (caddr r))))

(define (alog-make-records n)
  (let loop ([i n] [s 42] [acc '()])
    (if (zero? i)
        acc
        (let* ([s1 (lcg-next s)] [s2 (lcg-next s1)] [s3 (lcg-next s2)])
          (loop (- i 1) s3
                (cons (list (modulo s1 2000) (modulo s2 60) (modulo s3 300))
                      acc))))))

(define (app-activity-log n)
  (let ([records (alog-make-records n)])
    (let loop ([rs records] [dist 0] [hr 0] [climb 0])
      (if (null? rs)
          (+ dist hr climb)
          (let ([r (car rs)])
            (loop (cdr rs)
                  (+ dist (alog-distance r))
                  (+ hr (alog-heart-rate r))
                  (+ climb (alog-elevation r))))))))

;; ---------------------------------------------------------------------
;; 2. xsmith-cish: a grammar-driven random program generator whose
;;    context (depth limits, type environment size) lives in dynamically
;;    scoped parameters consulted at every node (≈ Xsmith cish).
;; ---------------------------------------------------------------------

(define xs-max-depth (make-parameter 6))
(define xs-env-size (make-parameter 3))

(define (xs-gen-expr depth seed)
  (if (>= depth (xs-max-depth))
      (cons 1 (lcg-next seed))                     ; leaf: size 1
      (let* ([s (lcg-next seed)]
             [kind (modulo s 4)])
        (cond
          [(= kind 0) (cons 1 s)]                  ; literal
          [(= kind 1) (cons (+ 1 (modulo s (xs-env-size))) s)] ; var ref
          [(= kind 2)                              ; binary op
           (let* ([l (xs-gen-expr (+ depth 1) s)]
                  [r (xs-gen-expr (+ depth 1) (cdr l))])
             (cons (+ 1 (car l) (car r)) (cdr r)))]
          [else                                    ; let: deeper env
           (parameterize ([xs-env-size (+ (xs-env-size) 1)])
             (let* ([rhs (xs-gen-expr (+ depth 1) s)]
                    [body (xs-gen-expr (+ depth 1) (cdr rhs))])
               (cons (+ 2 (car rhs) (car body)) (cdr body))))]))))

(define (app-xsmith n)
  (let loop ([i n] [seed 7] [acc 0])
    (if (zero? i)
        acc
        (let ([r (parameterize ([xs-max-depth (+ 4 (modulo i 5))])
                   (xs-gen-expr 0 seed))])
          (loop (- i 1) (lcg-next (cdr r)) (+ acc (car r)))))))

;; ---------------------------------------------------------------------
;; 3. megaparsack-json: parser combinators over generated JSON text,
;;    with contract-checked combinators (≈ Megaparsack JSON).
;; ---------------------------------------------------------------------

(define (json-gen depth seed out)
  ;; Builds a JSON-ish string as a list of chars (reversed).
  (let ([s (lcg-next seed)])
    (cond
      [(or (>= depth 3) (= 0 (modulo s 3)))
       (cons (append (reverse (string->list (number->string (modulo s 100)))) out) s)]
      [(= 1 (modulo s 3))
       (let loop ([k 2] [out (cons #\[ out)] [s s])
         (if (zero? k)
             (cons (cons #\] out) s)
             (let ([r (json-gen (+ depth 1) (lcg-next s) out)])
               (loop (- k 1)
                     (if (= k 1) (car r) (cons #\, (car r)))
                     (cdr r)))))]
      [else
       (let ([r (json-gen (+ depth 1) (lcg-next s) (cons #\[ out))])
         (cons (cons #\] (car r)) (cdr r)))])))

;; The parser state is a pair (chars . count); combinators are wrapped
;; with contracts on their results.
(define jp-skip
  ((contract-> pair? pair? 'jp-skip)
   (lambda (st) (cons (cdr (car st)) (cdr st)))))

(define (jp-peek st) (if (null? (car st)) #\$ (car (car st))))

(define (jp-value st)
  (let ([c (jp-peek st)])
    (cond
      [(char=? c #\[) (jp-array (jp-skip st))]
      [(char-numeric? c) (jp-number st)]
      [else (error "json parse error at" c)])))

(define (jp-number st)
  (let loop ([st st])
    (if (char-numeric? (jp-peek st))
        (loop (cons (cdr (car st)) (+ (cdr st) 1)))
        st)))

(define (jp-array st)
  (if (char=? (jp-peek st) #\])
      (jp-skip st)
      (let loop ([st (jp-value st)])
        (cond
          [(char=? (jp-peek st) #\,) (loop (jp-value (jp-skip st)))]
          [(char=? (jp-peek st) #\]) (cons (cdr (car st)) (+ (cdr st) 10))]
          [else (error "json parse error in array")]))))

(define (app-json n)
  (let loop ([i n] [seed 11] [acc 0])
    (if (zero? i)
        acc
        (let* ([g (json-gen 0 seed '())]
               [text (reverse (car g))]
               [st (jp-value (cons text 0))])
          (loop (- i 1) (lcg-next (cdr g)) (+ acc (cdr st)))))))

;; ---------------------------------------------------------------------
;; 4. markdown: render a document tree to text, consulting style
;;    parameters per element (≈ Markdown Reference render).
;; ---------------------------------------------------------------------

(define md-emphasis (make-parameter "*"))
(define md-depth (make-parameter 0))

(define (md-gen-doc n seed)
  (if (zero? n)
      (cons '() seed)
      (let* ([s (lcg-next seed)]
             [rest (md-gen-doc (- n 1) s)]
             [node (case (modulo s 4)
                     [(0) (list 'h (modulo s 3))]
                     [(1) (list 'p (modulo s 17))]
                     [(2) (list 'em (modulo s 9))]
                     [else (list 'section (modulo s 3))])])
        (cons (cons node (car rest)) (cdr rest)))))

(define (md-render-node node)
  (case (car node)
    [(h) (+ 100 (cadr node) (md-depth))]
    [(p) (+ (string-length (md-emphasis)) (cadr node))]
    [(em) (parameterize ([md-emphasis "**"])
            (+ (string-length (md-emphasis)) (cadr node)))]
    [(section)
     (parameterize ([md-depth (+ (md-depth) 1)])
       (+ (md-depth) (cadr node)))]
    [else 0]))

(define (app-markdown n)
  (let ([doc (car (md-gen-doc n 13))])
    (fold-left (lambda (acc node) (+ acc (md-render-node node))) 0 doc)))

;; ---------------------------------------------------------------------
;; 5. ol1v3r-smt: Gaussian-elimination style solving of small integer
;;    linear systems with contract-checked pivots (≈ OL1V3R on gauss
;;    SMT problems).
;; ---------------------------------------------------------------------

(define smt-pivot
  ((contract-> integer? integer? 'smt-pivot)
   (lambda (x) (if (zero? x) 1 x))))

(define (smt-make-matrix dim seed)
  (let loop ([i (* dim (+ dim 1))] [s seed] [acc '()])
    (if (zero? i)
        (list->vector acc)
        (let ([s2 (lcg-next s)])
          (loop (- i 1) s2 (cons (- (modulo s2 19) 9) acc))))))

(define (smt-solve dim m)
  ;; Integer-preserving elimination (fraction-free), returning a checksum
  ;; of the reduced matrix modulo a prime.
  (define (mref r c) (vector-ref m (+ (* r (+ dim 1)) c)))
  (define (mset! r c v) (vector-set! m (+ (* r (+ dim 1)) c) (modulo v 1000003)))
  (let pivots ([p 0])
    (if (= p dim)
        (let sum ([r 0] [acc 0])
          (if (= r dim)
              acc
              (sum (+ r 1) (modulo (+ acc (mref r dim)) 1000003))))
        (let ([pv (smt-pivot (mref p p))])
          (let rows ([r (+ p 1)])
            (if (= r dim)
                (pivots (+ p 1))
                (let ([f (mref r p)])
                  (let cols ([c p])
                    (if (> c dim)
                        (rows (+ r 1))
                        (begin
                          (mset! r c (- (* pv (mref r c)) (* f (mref p c))))
                          (cols (+ c 1))))))))))))

(define (app-smt n)
  (let loop ([i n] [seed 17] [acc 0])
    (if (zero? i)
        acc
        (let ([m (smt-make-matrix 8 seed)])
          (loop (- i 1) (lcg-next seed)
                (modulo (+ acc (smt-solve 8 m)) 1000003))))))
