;; A compact boyer-style benchmark (the nboyer/sboyer family of figure
;; 2): one-way pattern matching, term rewriting to normal form with a
;; lemma table keyed by head symbol, and tautology checking under truth
;; assumptions. Rule set reduced from the classic benchmark; same
;; computational shape (assq-heavy matching, deep recursion, heavy
;; consing).

;; Pattern variables are symbols (?a ?b ...); match returns a binding
;; alist or #f.
(define (boyer-var? x)
  (and (symbol? x)
       (char=? (string-ref (symbol->string x) 0) #\?)))

(define (boyer-match pat term bindings)
  (cond [(boyer-var? pat)
         (let ([hit (assq pat bindings)])
           (if hit
               (and (equal? (cdr hit) term) bindings)
               (cons (cons pat term) bindings)))]
        [(pair? pat)
         (and (pair? term)
              (let ([b (boyer-match (car pat) (car term) bindings)])
                (and b (boyer-match (cdr pat) (cdr term) b))))]
        [else (and (eqv? pat term) bindings)]))

(define (boyer-substitute template bindings)
  (cond [(boyer-var? template)
         (let ([hit (assq template bindings)])
           (if hit (cdr hit) template))]
        [(pair? template)
         (cons (boyer-substitute (car template) bindings)
               (boyer-substitute (cdr template) bindings))]
        [else template]))

(define boyer-lemmas (make-hashtable))

(define (boyer-add-lemma! lhs rhs)
  (let ([head (car lhs)])
    (hashtable-set! boyer-lemmas head
                    (cons (cons lhs rhs)
                          (hashtable-ref boyer-lemmas head '())))))

;; The (reduced) lemma set.
(boyer-add-lemma! '(and ?p ?q) '(if ?p (if ?q (t) (f)) (f)))
(boyer-add-lemma! '(or ?p ?q) '(if ?p (t) (if ?q (t) (f))))
(boyer-add-lemma! '(not ?p) '(if ?p (f) (t)))
(boyer-add-lemma! '(implies ?p ?q) '(if ?p (if ?q (t) (f)) (t)))
(boyer-add-lemma! '(iff ?p ?q) '(and (implies ?p ?q) (implies ?q ?p)))
(boyer-add-lemma! '(plus (plus ?x ?y) ?z) '(plus ?x (plus ?y ?z)))
(boyer-add-lemma! '(equal (plus ?a ?b) (zero)) '(and (zerop ?a) (zerop ?b)))
(boyer-add-lemma! '(difference ?x ?x) '(zero))
(boyer-add-lemma! '(equal (plus ?a ?b) (plus ?a ?c)) '(equal ?b ?c))
(boyer-add-lemma! '(equal (zero) (difference ?x ?y)) '(not (lessp ?y ?x)))
(boyer-add-lemma! '(times ?x (plus ?y ?z))
                  '(plus (times ?x ?y) (times ?x ?z)))
(boyer-add-lemma! '(times (times ?x ?y) ?z) '(times ?x (times ?y ?z)))
(boyer-add-lemma! '(equal (times ?x ?y) (zero))
                  '(or (zerop ?x) (zerop ?y)))
(boyer-add-lemma! '(append (append ?x ?y) ?z) '(append ?x (append ?y ?z)))
(boyer-add-lemma! '(reverse (append ?a ?b))
                  '(append (reverse ?b) (reverse ?a)))
(boyer-add-lemma! '(length (append ?a ?b))
                  '(plus (length ?a) (length ?b)))
(boyer-add-lemma! '(length (reverse ?x)) '(length ?x))
(boyer-add-lemma! '(member ?x (append ?a ?b))
                  '(or (member ?x ?a) (member ?x ?b)))
(boyer-add-lemma! '(member ?x (reverse ?y)) '(member ?x ?y))
(boyer-add-lemma! '(zerop (zero)) '(t))
(boyer-add-lemma! '(lessp ?x ?x) '(f))

(define (boyer-rewrite term)
  (if (pair? term)
      (boyer-rewrite-with-lemmas
       (cons (car term) (map boyer-rewrite (cdr term)))
       (hashtable-ref boyer-lemmas (car term) '()))
      term))

(define (boyer-rewrite-with-lemmas term lemmas)
  (if (null? lemmas)
      term
      (let ([b (boyer-match (car (car lemmas)) term '())])
        (if b
            (boyer-rewrite (boyer-substitute (cdr (car lemmas)) b))
            (boyer-rewrite-with-lemmas term (cdr lemmas))))))

;; Tautology checking of rewritten if-terms.
(define (boyer-truep x lst) (or (equal? x '(t)) (member x lst)))
(define (boyer-falsep x lst) (or (equal? x '(f)) (member x lst)))

(define (boyer-tautologyp x true-lst false-lst)
  (cond [(boyer-truep x true-lst) #t]
        [(boyer-falsep x false-lst) #f]
        [(and (pair? x) (eq? (car x) 'if))
         (cond [(boyer-truep (cadr x) true-lst)
                (boyer-tautologyp (caddr x) true-lst false-lst)]
               [(boyer-falsep (cadr x) false-lst)
                (boyer-tautologyp (cadddr x) true-lst false-lst)]
               [else
                (and (boyer-tautologyp (caddr x)
                                       (cons (cadr x) true-lst) false-lst)
                     (boyer-tautologyp (cadddr x)
                                       true-lst (cons (cadr x) false-lst)))])]
        [else #f]))

(define (boyer-tautp x)
  (boyer-tautologyp (boyer-rewrite x) '() '()))

;; Test theorems: each instance pairs syntactically different sides that
;; the lemma database normalizes to identical forms, so the tautology
;; checker proves the implication by assumption matching — the same
;; rewrite-then-check shape as the classic benchmark.
(define boyer-instances
  (list
   ;; member/append/reverse normalization
   '(implies (member q (append a (reverse b)))
             (or (member q a) (member q b)))
   ;; plus/zero normalization
   '(implies (equal (plus a b) (zero))
             (and (zerop a) (zerop b)))
   ;; associativity chains
   '(implies (equal (plus (plus a b) c) (zero))
             (equal (plus a (plus b c)) (zero)))
   ;; length/reverse/append
   '(implies (equal (length (reverse (append a b))) (zero))
             (equal (length (append (reverse b) (reverse a))) (zero)))))

(define (boyer-bench n)
  (let loop ([i n] [acc 0])
    (if (zero? i)
        acc
        (loop (- i 1)
              (+ acc
                 (fold-left (lambda (a inst) (+ a (if (boyer-tautp inst) 1 0)))
                            0 boyer-instances))))))
