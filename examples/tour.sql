-- A guided tour of ivdb's SQL surface. Run with:
--   dune exec bin/ivdb_repl.exe < examples/tour.sql
-- `dune runtest` compares its output with examples/tour.expected.

-- Schema: an order-entry table with a secondary index and a uniqueness
-- constraint.
CREATE TABLE sales (id INT NOT NULL, product TEXT NOT NULL, qty INT NOT NULL)
CREATE UNIQUE INDEX pk_sales ON sales (id)
CREATE INDEX ix_qty ON sales (qty)

-- The paper's core object: an indexed view, maintained with escrow
-- (increment) locks so concurrent writers to the same product never block.
CREATE VIEW by_product AS SELECT product, COUNT(*), SUM(qty) FROM sales GROUP BY product USING ESCROW

-- Tables, indexes and views share one namespace: a used name is refused.
CREATE INDEX ix_qty ON sales (qty)
CREATE TABLE by_product (product TEXT NOT NULL)

INSERT INTO sales VALUES (1, 'apple', 3), (2, 'pear', 2), (3, 'apple', 4), (4, 'fig', 9)

-- The view is read directly: no aggregation at query time.
SELECT * FROM by_product

-- A view reads like any relation: project, filter and sort its columns,
-- named by their labels.
SELECT product, sum FROM by_product WHERE sum > 3 ORDER BY sum DESC

-- The optimizer also answers matching ad-hoc aggregations from the view:
EXPLAIN SELECT product, SUM(qty) FROM sales GROUP BY product
SELECT product, SUM(qty) FROM sales GROUP BY product

-- Aggregates the view cannot store fall back to on-demand aggregation:
EXPLAIN SELECT product, MIN(qty) FROM sales GROUP BY product
SELECT product, AVG(qty) FROM sales GROUP BY product HAVING COUNT(*) > 1

-- HAVING follows WHERE's NULL rules: a group whose MAX is NULL satisfies
-- neither a comparison nor its negation, only IS NULL.
CREATE TABLE returns (id INT NOT NULL, product TEXT NOT NULL, refund INT)
INSERT INTO returns VALUES (1, 'apple', 2), (2, 'pear', NULL)
SELECT product, MAX(refund) FROM returns GROUP BY product HAVING MAX(refund) < 5
SELECT product, MAX(refund) FROM returns GROUP BY product HAVING NOT MAX(refund) < 5
SELECT product, MAX(refund) FROM returns GROUP BY product HAVING MAX(refund) IS NULL

-- Predicates use indexes where they can:
EXPLAIN SELECT id FROM sales WHERE qty > 2 AND qty <= 5
SELECT id, qty FROM sales WHERE qty > 2 AND qty <= 5 ORDER BY qty DESC

-- Transactions, savepoints, and rollback — the view follows along.
BEGIN
INSERT INTO sales VALUES (5, 'apple', 100)
SAVEPOINT before_fig
INSERT INTO sales VALUES (6, 'fig', 50)
ROLLBACK TO before_fig
COMMIT
SELECT * FROM by_product

-- Uniqueness is enforced transactionally:
INSERT INTO sales VALUES (1, 'dup', 1)

-- Crash the engine; committed state (view included) survives recovery.
.crash
SELECT * FROM by_product

-- A DDL statement that fails rolls back in full; recovery still works.
CREATE TABLE tags (id INT NOT NULL, tag TEXT NOT NULL)
INSERT INTO tags VALUES (1, 'red'), (2, 'red')
CREATE UNIQUE INDEX tags_tag ON tags (tag)
INSERT INTO tags VALUES (3, 'blue')
.crash
SELECT * FROM tags

-- Two aggregates of one kind get a column each, named by argument.
CREATE VIEW sums AS SELECT product, SUM(qty), SUM(id) FROM sales GROUP BY product
SELECT * FROM sums
SELECT product, sum_id FROM sums WHERE sum_id > 4

CHECKPOINT
SHOW TABLES
SHOW VIEWS
.quit
